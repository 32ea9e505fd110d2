//! Link faults: the body of a `net.*` spec, the endpoint matching that
//! decides which traffic a link fault touches, and the merged
//! [`LinkEffects`] the transport applies to one operation.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Names under this prefix are link faults; every other name is a
/// failpoint.
pub(crate) const LINK_PREFIX: &str = "net.";

/// What a link fault does to matching traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Sever both directions: connects refuse, writes blackhole, reads
    /// starve (buffered data survives for the heal).
    Partition,
    /// Sever one direction only (the spec's `->` direction).
    Oneway,
    /// Sleep before every matching operation.
    Delay,
    /// Write every matching chunk twice.
    Dup,
    /// Ship half of one matching write, then fail it.
    TornWrite,
    /// Fail matching operations with `ECONNRESET`.
    Reset,
}

/// One link fault: kind, endpoints and direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Link {
    kind: Kind,
    /// Source endpoint pattern (label, address, alias, or `*`).
    a: String,
    /// Destination endpoint pattern.
    b: String,
    /// `a<->b` (either direction) vs `a->b` (src→dst only).
    symmetric: bool,
    /// [`Kind::Delay`] only: the `:MS` of `net.delay:MS`.
    delay: Duration,
}

impl Link {
    /// Parse the link `A<->B` / `A->B` of a fault named
    /// `net.<kind>[:MS][#tag]`.
    pub(crate) fn parse(name: &str, body: &str) -> Result<Link, String> {
        let kind_text = name[LINK_PREFIX.len()..].split('#').next().unwrap_or("");
        let (kind_token, ms) = match kind_text.split_once(':') {
            Some((k, ms)) => (k, Some(ms)),
            None => (kind_text, None),
        };
        let kind = match kind_token {
            "partition" => Kind::Partition,
            "oneway" => Kind::Oneway,
            "delay" => Kind::Delay,
            "dup" => Kind::Dup,
            "torn_write" => Kind::TornWrite,
            "reset" => Kind::Reset,
            _ => {
                return Err(format!(
                    "unknown net fault kind {kind_token:?} \
                     (expected partition|oneway|delay|dup|torn_write|reset)"
                ))
            }
        };
        let delay_ms = ms
            .map(|ms| {
                ms.parse::<u64>()
                    .map_err(|_| format!("bad delay in fault name {name:?}"))
            })
            .transpose()?;
        if kind == Kind::Delay && delay_ms.is_none() {
            return Err(format!("net.delay needs a duration: net.delay:MS={body}"));
        }
        let (a, b, symmetric) = if let Some((a, b)) = body.split_once("<->") {
            (a, b, true)
        } else if let Some((a, b)) = body.split_once("->") {
            (a, b, false)
        } else {
            return Err(format!(
                "net fault spec {body:?} has no link (expected A<->B or A->B)"
            ));
        };
        let (a, b) = (a.trim(), b.trim());
        if a.is_empty() || b.is_empty() {
            return Err(format!("net fault spec {body:?} has an empty endpoint"));
        }
        Ok(Link {
            kind,
            a: a.to_string(),
            b: b.to_string(),
            symmetric,
            delay: Duration::from_millis(delay_ms.unwrap_or(0)),
        })
    }

    /// Does this link carry traffic flowing `src → dst`?
    pub(crate) fn carries(
        &self,
        src: Endpoint<'_>,
        dst: Endpoint<'_>,
        aliases: &BTreeMap<String, String>,
    ) -> bool {
        let is = |pattern: &str, end: Endpoint<'_>| end.is(pattern, aliases);
        (is(&self.a, src) && is(&self.b, dst))
            || (self.symmetric && is(&self.a, dst) && is(&self.b, src))
    }
}

impl fmt::Display for Link {
    /// The spec body, without the name's kind, delay and tag.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let arrow = if self.symmetric { "<->" } else { "->" };
        write!(f, "{}{arrow}{}", self.a, self.b)
    }
}

/// One end of a connection: its node label when known, and its address
/// (either may be empty).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Endpoint<'a>(pub(crate) Option<&'a str>, pub(crate) &'a str);

impl Endpoint<'_> {
    /// Does `pattern` name this endpoint? An endpoint is known by its
    /// label, its address, and the label its address is aliased to.
    fn is(self, pattern: &str, aliases: &BTreeMap<String, String>) -> bool {
        let Endpoint(label, addr) = self;
        pattern == "*"
            || label.is_some_and(|l| !l.is_empty() && l == pattern)
            || (!addr.is_empty()
                && (addr == pattern || aliases.get(addr).is_some_and(|l| l == pattern)))
    }
}

/// The effects the transport must apply to one operation, merged across
/// every link fault that matches its direction.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkEffects {
    /// The direction is severed (partition or oneway): blackhole
    /// writes, starve reads, refuse connects.
    pub severed: bool,
    /// Sleep this long before the operation.
    pub delay: Option<Duration>,
    /// Write the chunk twice.
    pub dup: bool,
    /// Ship half the chunk, then fail.
    pub torn: bool,
    /// Fail with `ECONNRESET`.
    pub reset: bool,
}

impl LinkEffects {
    /// Fold one triggered link fault in.
    pub(crate) fn add(&mut self, link: &Link) {
        match link.kind {
            Kind::Partition | Kind::Oneway => self.severed = true,
            Kind::Delay => {
                self.delay = Some(self.delay.map_or(link.delay, |d| d + link.delay));
            }
            Kind::Dup => self.dup = true,
            Kind::TornWrite => self.torn = true,
            Kind::Reset => self.reset = true,
        }
    }
}
