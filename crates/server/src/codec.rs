//! A direct codec for the line protocol: decodes request lines and
//! encodes replies without building a `serde::Value` tree.
//!
//! The serde derives on [`Request`] and [`Response`] remain the
//! normative wire format, and this module is tested byte for byte
//! against them.
//!
//! - [`decode_request`] scans the borrowed line once and builds the
//!   [`Request`] directly when every token is in its plain form:
//!   strings of printable ASCII without escapes, integers without sign,
//!   fraction or exponent that fit their field, each key known and seen
//!   once. Anything else, including `restore` and malformed JSON, goes
//!   to `serde_json::from_str`, so every accept/reject decision and
//!   every error message is serde's.
//! - [`encode_response`] appends the exact bytes `serde_json::to_string`
//!   prints (object keys in sorted order, `Money` as `[numer,denom]`)
//!   plus a newline. Only the `doc` of a `snapshot` reply, itself a
//!   `Value` tree, is printed through serde.

use osp_core::addon::SlotReport;
use osp_core::subston::SubstSlotReport;
use osp_econ::{Money, UserId};

use crate::protocol::{GameId, Mechanism, Op, Reply, Request, Response, ShardStat};

/// Decodes one request line exactly as `serde_json::from_str::<Request>`
/// would, taking the direct path when it can.
///
/// # Errors
///
/// Serde's error for any line serde rejects.
pub fn decode_request(line: &str) -> Result<Request, serde_json::Error> {
    match scan_request(line) {
        Some(request) => Ok(request),
        None => serde_json::from_str(line),
    }
}

/// The direct path of [`decode_request`] alone: the request, or `None`
/// where [`decode_request`] defers to serde.
#[must_use]
pub fn scan_request(line: &str) -> Option<Request> {
    let mut scanner = Scanner {
        text: line,
        bytes: line.as_bytes(),
        pos: 0,
    };
    let request = scanner.request()?;
    scanner.ws();
    (scanner.pos == scanner.bytes.len()).then_some(request)
}

/// Stores a field value, refusing a key seen twice (serde keeps the
/// last one; the scanner leaves that case to serde).
fn put<T>(slot: &mut Option<T>, value: T) -> Option<()> {
    match slot {
        Some(_) => None,
        None => {
            *slot = Some(value);
            Some(())
        }
    }
}

/// A single forward pass over one line. Every method skips leading
/// JSON whitespace and returns `None` as soon as the input leaves the
/// plain forms the scanner accepts.
struct Scanner<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.bytes.get(self.pos).copied()
    }

    fn next_byte(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    /// A string of printable ASCII without escapes.
    fn str(&mut self) -> Option<&'a str> {
        if !self.eat(b'"') {
            return None;
        }
        let start = self.pos;
        loop {
            match *self.bytes.get(self.pos)? {
                b'"' => break,
                b'\\' => return None,
                0x20..=0x7e => self.pos += 1,
                _ => return None,
            }
        }
        self.pos += 1;
        Some(&self.text[start..self.pos - 1])
    }

    fn string(&mut self) -> Option<String> {
        self.str().map(str::to_owned)
    }

    /// A JSON integer without sign, fraction or exponent that fits a
    /// `u64`.
    fn u64(&mut self) -> Option<u64> {
        self.ws();
        let start = self.pos;
        let mut value: u64 = 0;
        while let Some(&d @ b'0'..=b'9') = self.bytes.get(self.pos) {
            value = value.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
            self.pos += 1;
        }
        let digits = self.pos - start;
        let leading_zero = digits > 1 && self.bytes[start] == b'0';
        (digits > 0 && !leading_zero).then_some(value)
    }

    fn u32(&mut self) -> Option<u32> {
        self.u64().and_then(|v| u32::try_from(v).ok())
    }

    /// `null` as `Some(None)`, else the value `item` reads.
    fn opt<T>(&mut self, item: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        self.ws();
        if self.bytes[self.pos..].starts_with(b"null") {
            self.pos += 4;
            return Some(None);
        }
        item(self).map(Some)
    }

    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        if !self.eat(b'[') {
            return None;
        }
        let mut items = Vec::new();
        if self.eat(b']') {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            match self.next_byte()? {
                b',' => {}
                b']' => return Some(items),
                _ => return None,
            }
        }
    }

    /// An object whose members `field` reads one by one, keyed.
    fn object(&mut self, mut field: impl FnMut(&mut Self, &'a str) -> Option<()>) -> Option<()> {
        if !self.eat(b'{') {
            return None;
        }
        if self.eat(b'}') {
            return Some(());
        }
        loop {
            let key = self.str()?;
            if !self.eat(b':') {
                return None;
            }
            field(self, key)?;
            match self.next_byte()? {
                b',' => {}
                b'}' => return Some(()),
                _ => return None,
            }
        }
    }

    fn mechanism(&mut self) -> Option<Mechanism> {
        match self.str()? {
            "addoff" => Some(Mechanism::AddOff),
            "addon" => Some(Mechanism::AddOn),
            "substoff" => Some(Mechanism::SubstOff),
            "subston" => Some(Mechanism::SubstOn),
            _ => None,
        }
    }

    fn request(&mut self) -> Option<Request> {
        let (mut id, mut op) = (None, None);
        self.object(|s, key| match key {
            "id" => put(&mut id, s.u64()?),
            "op" => put(&mut op, s.op()?),
            _ => None,
        })?;
        Some(Request {
            id: id.unwrap_or(0),
            op: op?,
        })
    }

    fn op(&mut self) -> Option<Op> {
        if self.peek()? == b'"' {
            return match self.str()? {
                "stats" => Some(Op::Stats),
                "shutdown" => Some(Op::Shutdown),
                _ => None,
            };
        }
        let mut op = None;
        self.object(|s, tag| put(&mut op, s.op_body(tag)?))?;
        op
    }

    /// The member object of a tagged operation; `restore` (whose
    /// payload is a `Value` tree) is left to serde.
    fn op_body(&mut self, tag: &str) -> Option<Op> {
        let mut game = None;
        let op = match tag {
            "create" => {
                let (mut mechanism, mut horizon, mut costs, mut engine, mut seed) =
                    (None, None, None, None, None);
                self.object(|s, key| match key {
                    "game" => put(&mut game, s.u64()?),
                    "mechanism" => put(&mut mechanism, s.mechanism()?),
                    "horizon" => put(&mut horizon, s.u32()?),
                    "costs" => put(&mut costs, s.list(Self::string)?),
                    "engine" => put(&mut engine, s.opt(Self::string)?),
                    "seed" => put(&mut seed, s.opt(Self::u64)?),
                    _ => None,
                })?;
                Op::Create {
                    game: GameId(game?),
                    mechanism: mechanism?,
                    horizon: horizon.unwrap_or(1),
                    costs: costs?,
                    engine: engine.flatten(),
                    seed: seed.flatten(),
                }
            }
            "arrive" => {
                let (mut user, mut start, mut values, mut substitutes) = (None, None, None, None);
                self.object(|s, key| match key {
                    "game" => put(&mut game, s.u64()?),
                    "user" => put(&mut user, s.u32()?),
                    "start" => put(&mut start, s.u32()?),
                    "values" => put(&mut values, s.list(Self::string)?),
                    "substitutes" => put(&mut substitutes, s.list(Self::u32)?),
                    _ => None,
                })?;
                Op::Arrive {
                    game: GameId(game?),
                    user: user?,
                    start: start.unwrap_or(1),
                    values: values?,
                    substitutes: substitutes.unwrap_or_default(),
                }
            }
            "revise" => {
                let (mut user, mut from, mut values) = (None, None, None);
                self.object(|s, key| match key {
                    "game" => put(&mut game, s.u64()?),
                    "user" => put(&mut user, s.u32()?),
                    "from" => put(&mut from, s.u32()?),
                    "values" => put(&mut values, s.list(Self::string)?),
                    _ => None,
                })?;
                Op::Revise {
                    game: GameId(game?),
                    user: user?,
                    from: from?,
                    values: values?,
                }
            }
            "expire" => {
                let mut user = None;
                self.object(|s, key| match key {
                    "game" => put(&mut game, s.u64()?),
                    "user" => put(&mut user, s.u32()?),
                    _ => None,
                })?;
                Op::Expire {
                    game: GameId(game?),
                    user: user?,
                }
            }
            "tick" => {
                let mut slot = None;
                self.object(|s, key| match key {
                    "game" => put(&mut game, s.u64()?),
                    "slot" => put(&mut slot, s.opt(Self::u32)?),
                    _ => None,
                })?;
                Op::Tick {
                    game: GameId(game?),
                    slot: slot.flatten(),
                }
            }
            "price" | "snapshot" => {
                self.object(|s, key| match key {
                    "game" => put(&mut game, s.u64()?),
                    _ => None,
                })?;
                let game = GameId(game?);
                if tag == "price" {
                    Op::Price { game }
                } else {
                    Op::Snapshot { game }
                }
            }
            _ => return None,
        };
        Some(op)
    }
}

/// Appends `response` to `out` as one protocol line: the bytes of
/// `serde_json::to_string(response)` followed by `\n`.
///
/// # Errors
///
/// Serde's error if a `snapshot` payload fails to print (nothing is
/// appended then).
pub fn encode_response(out: &mut Vec<u8>, response: &Response) -> Result<(), serde_json::Error> {
    let start = out.len();
    let mut w = Writer(out);
    w.raw("{\"id\":").u64(response.id).raw(",\"reply\":{");
    if let Err(e) = w.reply(&response.reply) {
        out.truncate(start);
        return Err(e);
    }
    out.extend_from_slice(b"}}\n");
    Ok(())
}

fn mechanism_tag(mechanism: Mechanism) -> &'static str {
    match mechanism {
        Mechanism::AddOff => "addoff",
        Mechanism::AddOn => "addon",
        Mechanism::SubstOff => "substoff",
        Mechanism::SubstOn => "subston",
    }
}

/// Appends JSON tokens to a byte buffer. Keys are written as literal
/// text in the sorted order serde's `BTreeMap` objects print them.
struct Writer<'a>(&'a mut Vec<u8>);

impl Writer<'_> {
    fn raw(&mut self, text: &str) -> &mut Self {
        self.0.extend_from_slice(text.as_bytes());
        self
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = v;
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        self.0.extend_from_slice(&digits[at..]);
        self
    }

    fn u32(&mut self, v: u32) -> &mut Self {
        self.u64(u64::from(v))
    }

    fn i128(&mut self, v: i128) -> &mut Self {
        match u64::try_from(v.unsigned_abs()) {
            Ok(abs) => {
                if v < 0 {
                    self.0.push(b'-');
                }
                self.u64(abs)
            }
            Err(_) => self.raw(&v.to_string()),
        }
    }

    fn bool(&mut self, v: bool) -> &mut Self {
        self.raw(if v { "true" } else { "false" })
    }

    fn money(&mut self, m: Money) -> &mut Self {
        let ratio = m.as_ratio();
        self.raw("[")
            .i128(ratio.numer())
            .raw(",")
            .i128(ratio.denom())
            .raw("]")
    }

    fn opt_money(&mut self, m: Option<Money>) -> &mut Self {
        match m {
            Some(m) => self.money(m),
            None => self.raw("null"),
        }
    }

    /// A JSON array of `items`, each written by `item`.
    fn list<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut item: impl FnMut(&mut Self, T),
    ) -> &mut Self {
        self.0.push(b'[');
        for (k, x) in items.into_iter().enumerate() {
            if k > 0 {
                self.0.push(b',');
            }
            item(self, x);
        }
        self.raw("]")
    }

    fn payments(&mut self, payments: &[(UserId, Money)]) -> &mut Self {
        self.list(payments, |w, &(user, paid)| {
            w.raw("[").u32(user.0).raw(",").money(paid).raw("]");
        })
    }

    /// A JSON string, escaped as serde_json prints it.
    fn string(&mut self, s: &str) -> &mut Self {
        self.0.push(b'"');
        let bytes = s.as_bytes();
        let mut run = 0;
        for (at, &b) in bytes.iter().enumerate() {
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0..=0x1f => b"\\u00",
                _ => continue,
            };
            self.0.extend_from_slice(&bytes[run..at]);
            self.0.extend_from_slice(escape);
            if escape == b"\\u00" {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                self.0.push(HEX[usize::from(b >> 4)]);
                self.0.push(HEX[usize::from(b & 0xf)]);
            }
            run = at + 1;
        }
        self.0.extend_from_slice(&bytes[run..]);
        self.raw("\"")
    }

    fn shards(&mut self, tag: &str, shards: &[ShardStat]) {
        self.raw("\"").raw(tag).raw("\":{\"shards\":");
        self.list(shards, |w, s| {
            w.raw("{\"events\":")
                .u64(s.events)
                .raw(",\"games\":")
                .u64(s.games)
                .raw(",\"queue_depth\":")
                .u64(s.queue_depth)
                .raw(",\"recoveries\":")
                .u64(s.recoveries)
                .raw(",\"shard\":")
                .u32(s.shard)
                .raw("}");
        });
        self.raw("}");
    }

    fn slot_report(&mut self, r: &SlotReport) -> &mut Self {
        self.raw("{\"active\":")
            .list(&r.active, |w, u| {
                w.u32(u.0);
            })
            .raw(",\"newly_serviced\":")
            .list(&r.newly_serviced, |w, u| {
                w.u32(u.0);
            })
            .raw(",\"payments\":")
            .payments(&r.payments)
            .raw(",\"share\":")
            .opt_money(r.share)
            .raw(",\"slot\":")
            .u32(r.slot.0)
            .raw("}")
    }

    fn subst_slot_report(&mut self, r: &SubstSlotReport) -> &mut Self {
        self.raw("{\"newly_assigned\":")
            .list(&r.newly_assigned, |w, (u, o)| {
                w.raw("[").u32(u.0).raw(",").u32(o.0).raw("]");
            })
            .raw(",\"payments\":")
            .payments(&r.payments)
            .raw(",\"slot\":")
            .u32(r.slot.0)
            .raw("}")
    }

    fn game_user(&mut self, tag: &str, game: GameId, user: UserId) {
        self.raw("\"")
            .raw(tag)
            .raw("\":{\"game\":")
            .u64(game.0)
            .raw(",\"user\":")
            .u32(user.0)
            .raw("}");
    }

    /// The `"tag":{...}` member of a reply object.
    fn reply(&mut self, reply: &Reply) -> Result<(), serde_json::Error> {
        match reply {
            Reply::Created {
                game,
                mechanism,
                shard,
            } => {
                self.raw("\"created\":{\"game\":")
                    .u64(game.0)
                    .raw(",\"mechanism\":\"")
                    .raw(mechanism_tag(*mechanism))
                    .raw("\",\"shard\":")
                    .u32(*shard)
                    .raw("}");
            }
            Reply::Submitted { game, user } => self.game_user("submitted", *game, *user),
            Reply::Revised { game, user } => self.game_user("revised", *game, *user),
            Reply::Status {
                game,
                user,
                expired,
                serviced,
                payment,
            } => {
                self.raw("\"status\":{\"expired\":")
                    .bool(*expired)
                    .raw(",\"game\":")
                    .u64(game.0)
                    .raw(",\"payment\":")
                    .opt_money(*payment)
                    .raw(",\"serviced\":")
                    .bool(*serviced)
                    .raw(",\"user\":")
                    .u32(user.0)
                    .raw("}");
            }
            Reply::Slot { game, report } => {
                self.raw("\"slot\":{\"game\":")
                    .u64(game.0)
                    .raw(",\"report\":")
                    .slot_report(report)
                    .raw("}");
            }
            Reply::SubstSlot { game, report } => {
                self.raw("\"subst_slot\":{\"game\":")
                    .u64(game.0)
                    .raw(",\"report\":")
                    .subst_slot_report(report)
                    .raw("}");
            }
            Reply::Price {
                game,
                now,
                horizon,
                done,
                share,
                implemented,
            } => {
                self.raw("\"price\":{\"done\":")
                    .bool(*done)
                    .raw(",\"game\":")
                    .u64(game.0)
                    .raw(",\"horizon\":")
                    .u32(*horizon)
                    .raw(",\"implemented\":")
                    .list(implemented, |w, o| {
                        w.u32(o.0);
                    })
                    .raw(",\"now\":")
                    .u32(now.0)
                    .raw(",\"share\":")
                    .opt_money(*share)
                    .raw("}");
            }
            Reply::Snapshot { game, doc } => {
                let doc = serde_json::to_string(doc)?;
                self.raw("\"snapshot\":{\"doc\":")
                    .raw(&doc)
                    .raw(",\"game\":")
                    .u64(game.0)
                    .raw("}");
            }
            Reply::Restored { game, shard } => {
                self.raw("\"restored\":{\"game\":")
                    .u64(game.0)
                    .raw(",\"shard\":")
                    .u32(*shard)
                    .raw("}");
            }
            Reply::Stats { shards } => self.shards("stats", shards),
            Reply::Bye { shards } => self.shards("bye", shards),
            Reply::Error { code, message } => {
                self.raw("\"error\":{\"code\":")
                    .string(code)
                    .raw(",\"message\":")
                    .string(message)
                    .raw("}");
            }
        }
        Ok(())
    }
}
