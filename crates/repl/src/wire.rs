//! The replication stream's wire format.
//!
//! A follower sends the ordinary protocol line `REPLICATE <from_epoch>`
//! (optionally `REPLICATE <from_epoch> term=<t>` to declare the highest
//! term it has durably observed) and the connection switches from
//! request/response into a one-way stream of `#repl`-prefixed lines:
//!
//! ```text
//! #repl ok 42 3                        handshake: primary at epoch 42, term 3
//! #repl snapshot 42 17 3 <db-hex> <rules-hex|->   full-state bootstrap
//! #repl record write 3 43 18 <body-hex>   one shipped WAL record
//! #repl record rules 3 44 18 <body-hex>
//! #repl record term 4 45 18               a promotion fencepost (empty body)
//! #repl record write 4 46 19 <body-hex> <trace:016x>:<span:016x>
//! #repl heartbeat 44 3                 idle keepalive: primary epoch + term
//! #repl error <message>                stream is over; reconnect
//! ```
//!
//! Every frame that describes primary state carries the primary's
//! **term** — the monotonic failover counter (see `intensio_wal`'s
//! record format). A follower that has durably observed term `t`
//! rejects any stream whose frames carry a lower term: that stream
//! comes from a deposed primary that has not yet noticed its own
//! demotion. The rejection travels as an `error` frame whose message
//! starts with `STALE_TERM`.
//!
//! A record line may carry one optional trailing token: the trace
//! context of the primary-side commit (`<trace id>:<commit span id>`,
//! both 16 lowercase hex digits). A follower installs it before
//! applying, so its apply span joins the same trace with the primary's
//! commit span as its parent. Records replayed from history (which the
//! WAL does not trace) ship without the token.
//!
//! Bodies are lowercase hex so the stream stays line-framed like the
//! rest of the protocol (a record body is a QUEL script or encoded rule
//! relations — both may contain newlines). The handshake line always
//! comes first; exactly one of snapshot-then-records or records-only
//! follows, depending on whether the primary's log still covers
//! `from_epoch` (see `intensio_wal::read`).

use crate::ReplError;
use intensio_wal::{Record, RecordKind};

/// The message prefix an `error` frame uses to tell a peer its term is
/// stale. Receivers match on this prefix to distinguish fencing (which
/// demands demotion or target rotation) from ordinary stream teardown.
pub const STALE_TERM: &str = "STALE_TERM";

/// One line of the replication stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamMsg {
    /// Handshake: the stream is live; the primary's committed position.
    Ok {
        /// The primary's committed epoch at stream start.
        epoch: u64,
        /// The primary's current term.
        term: u64,
    },
    /// Full-state bootstrap: the primary's pinned snapshot.
    Snapshot {
        /// Epoch of the shipped state.
        epoch: u64,
        /// Data version of the shipped state.
        data_version: u64,
        /// Term under which the shipped state was committed.
        term: u64,
        /// The database, encoded by [`crate::snapshot::db_to_bytes`].
        db: Vec<u8>,
        /// The installed rule set in its WAL record encoding
        /// (`intensio_wal::rules_codec`), when one was installed.
        rules: Option<Vec<u8>>,
    },
    /// One shipped WAL record (a QUEL write, a rule-set install, or a
    /// term-bump fencepost). The record's own `term` field is on the
    /// wire, so fencing survives history replay.
    Record {
        /// The shipped record.
        rec: Record,
        /// The primary-side commit's `(trace id, span id)`, when the
        /// committing request was traced. Followers parent their apply
        /// span on it.
        trace: Option<(u64, u64)>,
    },
    /// Idle keepalive carrying the primary's current committed epoch
    /// and term, so followers track lag (and fence) between writes.
    Heartbeat {
        /// The primary's committed epoch.
        epoch: u64,
        /// The primary's current term.
        term: u64,
    },
    /// The stream is over; the follower should reconnect. A message
    /// starting with [`STALE_TERM`] means the receiver's lineage lost a
    /// failover and it must not retry the same target unchanged.
    Error(String),
}

const PREFIX: &str = "#repl ";

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{b:02x}"));
    }
    out
}

fn hex_decode(s: &str) -> Result<Vec<u8>, ReplError> {
    if !s.len().is_multiple_of(2) {
        return Err(ReplError("odd-length hex body".to_string()));
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() / 2);
    let nibble = |c: u8| -> Result<u8, ReplError> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(ReplError(format!("bad hex digit {:?}", c as char))),
        }
    };
    for pair in bytes.chunks_exact(2) {
        out.push(nibble(pair[0])? << 4 | nibble(pair[1])?);
    }
    Ok(out)
}

impl StreamMsg {
    /// Render the message as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            StreamMsg::Ok { epoch, term } => format!("{PREFIX}ok {epoch} {term}"),
            StreamMsg::Snapshot {
                epoch,
                data_version,
                term,
                db,
                rules,
            } => {
                let rules = match rules {
                    Some(r) => hex_encode(r),
                    None => "-".to_string(),
                };
                format!(
                    "{PREFIX}snapshot {epoch} {data_version} {term} {} {rules}",
                    hex_encode(db)
                )
            }
            StreamMsg::Record { rec, trace } => {
                let mut line = format!(
                    "{PREFIX}record {} {} {} {} {}",
                    rec.kind.name(),
                    rec.term,
                    rec.epoch,
                    rec.data_version,
                    hex_encode(&rec.body)
                );
                if let Some((trace_id, span_id)) = trace {
                    let _ = std::fmt::Write::write_fmt(
                        &mut line,
                        format_args!(" {trace_id:016x}:{span_id:016x}"),
                    );
                }
                line
            }
            StreamMsg::Heartbeat { epoch, term } => format!("{PREFIX}heartbeat {epoch} {term}"),
            StreamMsg::Error(msg) => {
                format!("{PREFIX}error {}", msg.replace(['\n', '\r'], " "))
            }
        }
    }

    /// Parse one stream line (as produced by [`StreamMsg::encode`]).
    pub fn parse(line: &str) -> Result<StreamMsg, ReplError> {
        let rest = line
            .trim_end_matches(['\r', '\n'])
            .strip_prefix(PREFIX)
            .ok_or_else(|| ReplError(format!("not a replication line: {line:?}")))?;
        let (verb, args) = rest.split_once(' ').unwrap_or((rest, ""));
        let int = |s: &str| -> Result<u64, ReplError> {
            s.parse()
                .map_err(|_| ReplError(format!("bad integer {s:?} in {verb} line")))
        };
        let two_ints = |args: &str| -> Result<(u64, u64), ReplError> {
            let (a, b) = args
                .split_once(' ')
                .ok_or_else(|| ReplError(format!("{verb} line missing term field")))?;
            if b.contains(' ') {
                return Err(ReplError(format!("trailing fields on {verb} line")));
            }
            Ok((int(a)?, int(b)?))
        };
        match verb {
            "ok" => {
                let (epoch, term) = two_ints(args)?;
                Ok(StreamMsg::Ok { epoch, term })
            }
            "heartbeat" => {
                let (epoch, term) = two_ints(args)?;
                Ok(StreamMsg::Heartbeat { epoch, term })
            }
            "error" => Ok(StreamMsg::Error(args.to_string())),
            "snapshot" => {
                let mut it = args.split(' ');
                let mut next = || -> Result<&str, ReplError> {
                    it.next()
                        .ok_or_else(|| ReplError("snapshot line missing fields".to_string()))
                };
                let epoch = int(next()?)?;
                let data_version = int(next()?)?;
                let term = int(next()?)?;
                let db = hex_decode(next()?)?;
                let rules = match next()? {
                    "-" => None,
                    hex => Some(hex_decode(hex)?),
                };
                if it.next().is_some() {
                    return Err(ReplError("trailing fields on snapshot line".to_string()));
                }
                Ok(StreamMsg::Snapshot {
                    epoch,
                    data_version,
                    term,
                    db,
                    rules,
                })
            }
            "record" => {
                let mut it = args.split(' ');
                let mut next = || -> Result<&str, ReplError> {
                    it.next()
                        .ok_or_else(|| ReplError("record line missing fields".to_string()))
                };
                let kind = match next()? {
                    "write" => RecordKind::Write,
                    "rules" => RecordKind::Rules,
                    "term" => RecordKind::Term,
                    other => return Err(ReplError(format!("unknown record kind {other:?}"))),
                };
                let term = int(next()?)?;
                let epoch = int(next()?)?;
                let data_version = int(next()?)?;
                let body = hex_decode(next()?)?;
                let trace = match it.next() {
                    None => None,
                    Some(tok) => Some(parse_trace_token(tok)?),
                };
                if it.next().is_some() {
                    return Err(ReplError("trailing fields on record line".to_string()));
                }
                Ok(StreamMsg::Record {
                    rec: Record {
                        kind,
                        term,
                        epoch,
                        data_version,
                        body,
                    },
                    trace,
                })
            }
            other => Err(ReplError(format!("unknown replication verb {other:?}"))),
        }
    }

    /// Whether a protocol line belongs to a replication stream.
    pub fn is_stream_line(line: &str) -> bool {
        line.starts_with(PREFIX)
    }

    /// Whether the message is a fencing rejection (an `error` frame
    /// whose message starts with [`STALE_TERM`]).
    pub fn is_stale_term(&self) -> bool {
        matches!(self, StreamMsg::Error(msg) if msg.starts_with(STALE_TERM))
    }
}

/// Parse the optional `<trace:016x>:<span:016x>` token on a record line.
fn parse_trace_token(tok: &str) -> Result<(u64, u64), ReplError> {
    let bad = || ReplError(format!("bad trace token {tok:?} on record line"));
    let (t, s) = tok.split_once(':').ok_or_else(bad)?;
    if t.len() != 16 || s.len() != 16 {
        return Err(bad());
    }
    let trace_id = u64::from_str_radix(t, 16).map_err(|_| bad())?;
    let span_id = u64::from_str_radix(s, 16).map_err(|_| bad())?;
    if trace_id == 0 {
        return Err(bad());
    }
    Ok((trace_id, span_id))
}

#[cfg(test)]
mod tests {
    use super::*;
    // The property tests draw from the fault registry's seeded
    // generator, so every case replays from its seed.
    use intensio_fault::Rng;

    #[test]
    fn every_variant_round_trips() {
        let msgs = [
            StreamMsg::Ok { epoch: 42, term: 3 },
            StreamMsg::Snapshot {
                epoch: 7,
                data_version: 3,
                term: 2,
                db: b"%intensio-db v1\n".to_vec(),
                rules: Some(vec![0, 1, 254, 255]),
            },
            StreamMsg::Snapshot {
                epoch: 0,
                data_version: 0,
                term: 0,
                db: Vec::new(),
                rules: None,
            },
            StreamMsg::Record {
                rec: Record::write(9, 4, "append to R (Id = \"x\")\nmore"),
                trace: None,
            },
            StreamMsg::Record {
                rec: Record::rules(10, 4, vec![7; 33]).with_term(1),
                trace: None,
            },
            StreamMsg::Record {
                rec: Record::term_bump(2, 11, 4),
                trace: None,
            },
            StreamMsg::Record {
                rec: Record::write(12, 5, "append to R (Id = \"y\")").with_term(2),
                trace: Some((0xdead_beef_cafe_f00d, 0x0000_0000_0000_002a)),
            },
            StreamMsg::Heartbeat { epoch: 11, term: 2 },
            StreamMsg::Error("primary shutting down".to_string()),
        ];
        for msg in msgs {
            let line = msg.encode();
            assert!(StreamMsg::is_stream_line(&line));
            assert!(!line.contains('\n'), "stream lines must stay line-framed");
            assert_eq!(StreamMsg::parse(&line).unwrap(), msg);
        }
    }

    #[test]
    fn garbage_is_rejected_not_misread() {
        for bad in [
            "",
            "SQL select 1",
            "#repl",
            "#repl bogus 1",
            "#repl ok",
            "#repl ok 1",
            "#repl ok notanumber 2",
            "#repl ok 1 2 3",
            "#repl heartbeat 4",
            "#repl record write 1",
            "#repl record write 1 2 3",
            "#repl record write 0 1 2 xyz",
            "#repl record mystery 0 1 2 00",
            "#repl record write 0 1 2 00 nottrace",
            "#repl record write 0 1 2 00 0000000000000000:0000000000000001",
            "#repl record write 0 1 2 00 0000000000000001:0000000000000002 extra",
            "#repl snapshot 1 2",
            "#repl snapshot 1 2 3",
            "#repl snapshot 1 2 3 0g -",
            "#repl snapshot 1 2 3 00 - extra",
        ] {
            assert!(StreamMsg::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn error_messages_with_newlines_stay_on_one_line() {
        let msg = StreamMsg::Error("two\nlines".to_string());
        let line = msg.encode();
        assert!(!line.contains('\n'));
        assert_eq!(
            StreamMsg::parse(&line).unwrap(),
            StreamMsg::Error("two lines".to_string())
        );
    }

    #[test]
    fn stale_term_errors_are_recognized() {
        let msg = StreamMsg::Error(format!("{STALE_TERM}: stream term 1 below follower term 2"));
        assert!(msg.is_stale_term());
        assert!(StreamMsg::parse(&msg.encode()).unwrap().is_stale_term());
        assert!(!StreamMsg::Error("primary shutting down".into()).is_stale_term());
        assert!(!StreamMsg::Heartbeat { epoch: 1, term: 1 }.is_stale_term());
    }

    fn random_msg(rng: &mut Rng) -> StreamMsg {
        let body = |rng: &mut Rng| -> Vec<u8> {
            let len = (rng.next_u64() % 64) as usize;
            (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect()
        };
        match rng.next_u64() % 5 {
            0 => StreamMsg::Ok {
                epoch: rng.next_u64(),
                term: rng.next_u64(),
            },
            1 => StreamMsg::Heartbeat {
                epoch: rng.next_u64(),
                term: rng.next_u64(),
            },
            2 => StreamMsg::Snapshot {
                epoch: rng.next_u64(),
                data_version: rng.next_u64(),
                term: rng.next_u64(),
                db: body(rng),
                rules: if rng.next_u64().is_multiple_of(2) {
                    Some(body(rng))
                } else {
                    None
                },
            },
            3 => {
                let kind = match rng.next_u64() % 3 {
                    0 => RecordKind::Write,
                    1 => RecordKind::Rules,
                    _ => RecordKind::Term,
                };
                let trace = if rng.next_u64().is_multiple_of(2) {
                    Some((rng.next_u64() | 1, rng.next_u64()))
                } else {
                    None
                };
                StreamMsg::Record {
                    rec: Record {
                        kind,
                        term: rng.next_u64(),
                        epoch: rng.next_u64(),
                        data_version: rng.next_u64(),
                        body: body(rng),
                    },
                    trace,
                }
            }
            _ => {
                let len = 1 + (rng.next_u64() % 40) as usize;
                let msg: String = (0..len)
                    .map(|_| (b'a' + (rng.next_u64() % 26) as u8) as char)
                    .collect();
                StreamMsg::Error(msg)
            }
        }
    }

    #[test]
    fn property_random_frames_round_trip() {
        let mut rng = Rng::new(0x5eed_f011_0b5e_55ed);
        for i in 0..500 {
            let msg = random_msg(&mut rng);
            let line = msg.encode();
            let back = StreamMsg::parse(&line)
                .unwrap_or_else(|e| panic!("round {i}: {line:?} failed to parse: {e:?}"));
            assert_eq!(back, msg, "round {i}: {line:?} round-tripped wrong");
        }
    }

    #[test]
    fn property_truncated_frames_error_or_differ_never_panic() {
        // A frame cut anywhere — a peer dying mid-write, a link fault
        // tearing the line — must parse to an error or to a *different*
        // message. Parsing a strict prefix back to the original would
        // mean a field silently defaulted under truncation.
        let mut rng = Rng::new(0x070c_47ed_f4a3_3751);
        for _ in 0..200 {
            let msg = random_msg(&mut rng);
            let line = msg.encode(); // always ASCII, so byte cuts are char-safe
            for keep in 0..line.len() {
                if let Ok(back) = StreamMsg::parse(&line[..keep]) {
                    assert_ne!(
                        back, msg,
                        "prefix of {keep} bytes of {line:?} still read as the original"
                    );
                }
            }
        }
    }

    #[test]
    fn property_interleaved_garbage_never_panics() {
        // Bytes that were never a frame — noise spliced into the stream
        // by a duplicating or tearing link — may only ever produce a
        // parse error (or, by blind luck, a syntactically valid frame);
        // the reader must not panic on any of them.
        let mut rng = Rng::new(0x6a5b_a6e5_eed1_1235);
        for i in 0..500 {
            let len = (rng.next_u64() % 120) as usize;
            let mut s = if rng.next_u64().is_multiple_of(2) {
                String::new()
            } else {
                // Half the inputs start as stream lines so the garbage
                // reaches the per-verb field parsers, not just the
                // prefix check.
                "#repl ".to_string()
            };
            for _ in 0..len {
                // Printable ASCII, space-heavy to vary token counts.
                let c = match rng.next_u64() % 4 {
                    0 => b' ',
                    _ => (0x20 + (rng.next_u64() % 0x5f) as u8).min(0x7e),
                };
                s.push(c as char);
            }
            let _ = StreamMsg::parse(&s); // round {i}: must return, not panic
            let _ = i;
        }
    }

    #[test]
    fn property_mutated_frames_never_misread() {
        // Deleting any single token from an encoded frame must yield a
        // parse error or a *different* message — never the original
        // (i.e. no field is silently defaulted).
        let mut rng = Rng::new(0xdefa_ced5_7a1e_7e12);
        for _ in 0..200 {
            let msg = random_msg(&mut rng);
            let line = msg.encode();
            let tokens: Vec<&str> = line.split(' ').collect();
            // Skip the "#repl" prefix and verb; removing those makes a
            // trivially-not-a-stream-line string.
            for drop_at in 2..tokens.len() {
                let mut kept: Vec<&str> = tokens.clone();
                kept.remove(drop_at);
                let mutated = kept.join(" ");
                if let Ok(back) = StreamMsg::parse(&mutated) {
                    assert_ne!(
                        back, msg,
                        "dropping token {drop_at} from {line:?} still read as the original"
                    );
                }
            }
        }
    }
}
