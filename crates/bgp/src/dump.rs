//! Line-oriented text RIB dumps and route update streams.
//!
//! RIB dump format, one route per line, `|`-separated:
//!
//! ```text
//! # comment / header lines start with '#'
//! 10.0.0.0/8|192.0.2.1|1239 701 3356|IGP|TIER1
//! ```
//!
//! Update stream format ([`read_updates`]/[`write_updates`]), one
//! update per line prefixed by a unix-seconds timestamp and an action
//! tag; consecutive lines sharing a timestamp form one
//! [`UpdateBatch`]:
//!
//! ```text
//! # time|A|prefix|next_hop|as_path|origin|peer_class
//! # time|W|prefix
//! 120|A|10.0.0.0/8|192.0.2.1|1239 701|IGP|TIER1
//! 120|W|172.16.0.0/12
//! 300|A|10.0.0.0/8|192.0.2.9|7018|EGP|TIER2
//! ```
//!
//! This mirrors the flat text exports of route collectors (e.g. RouteViews
//! `show ip bgp` dumps and MRT `UPDATE` logs) closely enough to be
//! practical while staying trivially diffable in tests. All parse
//! errors are typed and carry the 1-based line number plus the
//! offending token; a line that is not UTF-8 is a parse error like any
//! other ([`DumpError::BadField`] with field `"utf8"`), and
//! [`DumpError::Io`] is kept for reads that fail.
//!
//! [`read_routes`] is the reader: one pass over the bytes, one reused
//! line buffer, no allocation per line beyond the route's own AS path.
//! [`read_dump`] is that put into a [`BgpTable`]'s order; a caller that
//! only attributes packets wants
//! [`crate::FrozenBgpTable::from_routes`]`(read_routes(..)?)` instead.
//!
//! [`read_routes`] (and so [`read_dump`]) is the one call here that uses
//! threads: it reads the dump to its end, cuts it after a `\n` into one
//! piece per core (at most eight, at least 256 KiB each; a small dump or
//! a single core spawns nothing) and parses the pieces side by side with
//! the same record loop, each numbering its lines from where its piece
//! starts. The routes come back concatenated in file order and the error
//! is the earliest failing line's, with its line number in the whole
//! file, so neither depends on the thread count. [`read_updates`] stays
//! serial: batches coalesce and timestamps are checked across lines.

use core::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::Ipv4Addr;
use std::str::FromStr;

use eleph_net::Prefix;

use crate::{BgpTable, RouteEntry, RouteUpdate, UpdateBatch};

/// Errors from parsing a text RIB dump or update stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DumpError {
    /// Line did not have the expected number of fields.
    FieldCount {
        /// 1-based line number.
        line: usize,
        /// Fields the line's record kind requires.
        expected: usize,
        /// Fields found.
        got: usize,
    },
    /// A field failed to parse. Field `"utf8"` is the whole line: it
    /// holds bytes that are not UTF-8, and `content` is its lossy
    /// decoding.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Which field.
        field: &'static str,
        /// Offending content.
        content: String,
    },
    /// An update stream's timestamps went backwards.
    NonMonotonic {
        /// 1-based line number.
        line: usize,
        /// Timestamp of the preceding update.
        prev: u64,
        /// The out-of-order timestamp found.
        got: u64,
    },
    /// Underlying I/O failure: the reader or writer returned an error.
    Io(String),
}

impl fmt::Display for DumpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DumpError::FieldCount { line, expected, got } => {
                write!(f, "line {line}: expected {expected} fields, got {got}")
            }
            DumpError::BadField { line, field, content } => {
                write!(f, "line {line}: bad {field}: {content:?}")
            }
            DumpError::NonMonotonic { line, prev, got } => {
                write!(f, "line {line}: timestamp {got} goes backwards (previous {prev})")
            }
            DumpError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for DumpError {}

impl From<std::io::Error> for DumpError {
    fn from(e: std::io::Error) -> Self {
        DumpError::Io(e.to_string())
    }
}

/// Write `prefix|next_hop|as_path|origin|peer_class` and the newline:
/// the whole of a RIB dump line, the tail of an announce line.
fn write_route_fields<W: Write>(out: &mut W, e: &RouteEntry) -> io::Result<()> {
    write!(out, "{}|{}|", e.prefix, e.next_hop)?;
    for (i, asn) in e.as_path.iter().enumerate() {
        if i > 0 {
            out.write_all(b" ")?;
        }
        write!(out, "{asn}")?;
    }
    writeln!(out, "|{}|{}", e.origin, e.peer_class)
}

/// Serialise a table to the text format, sorted in RIB order.
pub fn write_dump<W: Write>(table: &BgpTable, mut out: W) -> Result<(), DumpError> {
    writeln!(out, "# backbone-elephants RIB dump: {} routes", table.len())?;
    writeln!(out, "# prefix|next_hop|as_path|origin|peer_class")?;
    for e in table.iter() {
        write_route_fields(&mut out, e)?;
    }
    Ok(())
}

/// Most fields a record has (an announce line).
const MAX_FIELDS: usize = 7;

/// One record line split at its `|`s: every field counted, the first
/// [`MAX_FIELDS`] kept (a line with more is a [`DumpError::FieldCount`]
/// whatever its kind).
struct Record<'a> {
    /// 1-based line number.
    line: usize,
    fields: [&'a str; MAX_FIELDS],
    count: usize,
}

impl<'a> Record<'a> {
    fn split(line: usize, text: &'a str) -> Self {
        let mut fields = [""; MAX_FIELDS];
        let mut count = 0;
        let mut start = 0;
        for (i, &b) in text.as_bytes().iter().enumerate() {
            if b == b'|' {
                if count < MAX_FIELDS {
                    fields[count] = &text[start..i];
                }
                count += 1;
                start = i + 1;
            }
        }
        if count < MAX_FIELDS {
            fields[count] = &text[start..];
        }
        Record { line, fields, count: count + 1 }
    }

    /// The fields, which must number exactly `expected`.
    fn exactly(&self, expected: usize) -> Result<&[&'a str], DumpError> {
        if self.count == expected {
            Ok(&self.fields[..expected])
        } else {
            Err(DumpError::FieldCount { line: self.line, expected, got: self.count })
        }
    }
}

fn bad_field(line: usize, field: &'static str, content: &str) -> DumpError {
    DumpError::BadField { line, field, content: content.to_string() }
}

/// The record loop of both formats: read `reader` a line at a time into
/// one reused buffer (which grows to the longest line and no further),
/// skip blank and `#` lines, and hand every other line to `record`,
/// split into fields and numbered from `first_line` on. Lines end at
/// `\n`; whitespace around a line, a `\r` included, is not part of it.
fn for_each_record<R: BufRead>(
    mut reader: R,
    first_line: usize,
    mut record: impl FnMut(Record<'_>) -> Result<(), DumpError>,
) -> Result<(), DumpError> {
    let mut buf = Vec::new();
    let mut line = first_line - 1;
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        line += 1;
        let text = match std::str::from_utf8(&buf) {
            Ok(text) => text.trim(),
            Err(_) => {
                let end = buf.len() - usize::from(buf.ends_with(b"\n"));
                let end = end - usize::from(buf[..end].ends_with(b"\r"));
                return Err(bad_field(line, "utf8", &String::from_utf8_lossy(&buf[..end])));
            }
        };
        if !text.is_empty() && !text.starts_with('#') {
            record(Record::split(line, text))?;
        }
    }
}

// The field parsers below each try the spelling every writer produces —
// plain decimal digits — on the bytes, and leave everything else (a
// sign, leading zeros, stray whitespace, junk) to the `FromStr` impl
// the format is defined by. What is accepted, and what it means, is
// therefore that impl's definition; the fast paths only have to agree
// with it on the strings they take.

/// The value of a run of 1 to 19 ASCII digits, which is every such run
/// that cannot overflow a `u64`; `None` for anything else.
fn digits(s: &[u8]) -> Option<u64> {
    if s.is_empty() || s.len() > 19 {
        return None;
    }
    s.iter().try_fold(0u64, |v, &b| {
        let d = b.wrapping_sub(b'0');
        (d <= 9).then(|| v * 10 + u64::from(d))
    })
}

/// `s.parse::<T>()` for an unsigned integer type.
fn number<T: TryFrom<u64> + FromStr>(s: &str) -> Option<T> {
    digits(s.as_bytes()).and_then(|v| T::try_from(v).ok()).or_else(|| s.parse().ok())
}

/// Four decimal octets, none with a leading zero, as host-order bits:
/// the one spelling of an address `Ipv4Addr::from_str` takes. `None`
/// for anything else.
fn dotted_quad(s: &str) -> Option<u32> {
    let (mut bits, mut dots) = (0u32, 0);
    let (mut octet, mut len) = (0u32, 0);
    for &b in s.as_bytes() {
        let d = b.wrapping_sub(b'0');
        if d <= 9 {
            if len > 0 && octet == 0 {
                return None;
            }
            octet = octet * 10 + u32::from(d);
            len += 1;
            if octet > 255 {
                return None;
            }
        } else if b == b'.' && len > 0 {
            bits = bits << 8 | octet;
            dots += 1;
            (octet, len) = (0, 0);
        } else {
            return None;
        }
    }
    (dots == 3 && len > 0).then_some(bits << 8 | octet)
}

/// `s.parse::<Ipv4Addr>()`.
fn parse_addr(s: &str) -> Option<Ipv4Addr> {
    dotted_quad(s).map(Ipv4Addr::from).or_else(|| s.parse().ok())
}

/// `s.parse::<Prefix>()`.
fn parse_prefix(s: &str) -> Option<Prefix> {
    let fast = || {
        let (addr, len) = s.split_once('/')?;
        let len = u8::try_from(digits(len.as_bytes())?).ok()?;
        Prefix::from_u32(dotted_quad(addr)?, len).ok()
    };
    fast().or_else(|| s.parse().ok())
}

/// `s.split_whitespace()` with every token parsed as a `u32`; the
/// error is the first token that is not one.
fn parse_as_path(s: &str) -> Result<Vec<u32>, &str> {
    let asn = |t| number::<u32>(t).ok_or(t);
    let bytes = s.as_bytes();
    // Sized before it is filled: one allocation per route, not two.
    let mut path = Vec::with_capacity(bytes.iter().filter(|&&b| b == b' ').count() + 1);
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b' ' {
            if start < i {
                path.push(asn(&s[start..i])?);
            }
            start = i + 1;
        } else if !b.is_ascii_digit() {
            // Some other whitespace, or junk: not this loop's to judge.
            return s.split_whitespace().map(asn).collect();
        }
    }
    if start < s.len() {
        path.push(asn(&s[start..])?);
    }
    Ok(path)
}

/// Parse the five route fields (`prefix|next_hop|as_path|origin|
/// peer_class`) shared by RIB dump lines and announce lines.
fn parse_route_fields(line: usize, fields: &[&str]) -> Result<RouteEntry, DumpError> {
    debug_assert_eq!(fields.len(), 5);
    let bad = |field, content| bad_field(line, field, content);
    Ok(RouteEntry {
        prefix: parse_prefix(fields[0]).ok_or_else(|| bad("prefix", fields[0]))?,
        next_hop: parse_addr(fields[1]).ok_or_else(|| bad("next_hop", fields[1]))?,
        as_path: parse_as_path(fields[2]).map_err(|token| bad("as_path", token))?,
        origin: fields[3].parse().map_err(|_| bad("origin", fields[3]))?,
        peer_class: fields[4].parse().map_err(|_| bad("peer_class", fields[4]))?,
    })
}

/// Parse the routes of a text RIB dump, in file order, duplicates and
/// all: nothing is sorted, merged or indexed here.
///
/// This is the one parser. To attribute packets, hand the result to
/// [`crate::FrozenBgpTable::from_routes`] (or
/// [`crate::LiveBgpTable::from_routes`]): both number the routes in
/// ascending prefix order and let the last of two routes for one prefix
/// win, exactly as [`BgpTable::from_entries`] orders them — which is
/// what [`read_dump`] does.
///
/// The input is read to its end and parsed in line-aligned pieces on
/// one thread per core (see the [module docs](self)); the routes and the
/// error are the same whatever the thread count.
pub fn read_routes<R: Read>(input: R) -> Result<Vec<RouteEntry>, DumpError> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    read_routes_in(input, |len| cores.min(MAX_PIECES).min(len / MIN_PIECE + 1))
}

/// Most pieces [`read_routes`] cuts a dump into.
const MAX_PIECES: usize = 8;
/// Dump bytes a piece is worth a thread for.
const MIN_PIECE: usize = 256 * 1024;

/// [`read_routes`] with the dump cut into `pieces(its length)` pieces,
/// each parsed on a thread of its own (the first on the caller's).
fn read_routes_in<R: Read>(
    mut input: R,
    pieces: impl FnOnce(usize) -> usize,
) -> Result<Vec<RouteEntry>, DumpError> {
    let mut text = Vec::new();
    let failed = input.read_to_end(&mut text).err();
    if failed.is_some() {
        // Only the lines the input completed before it failed are read.
        text.truncate(text.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1));
    }
    let pieces = line_pieces(&text, pieces(text.len()));
    let parse = |(start, end, first_line): (usize, usize, usize)| {
        let mut routes = Vec::new();
        for_each_record(&text[start..end], first_line, |rec| {
            routes.push(parse_route_fields(rec.line, rec.exactly(5)?)?);
            Ok(())
        })
        .map(|()| routes)
    };
    let routes = std::thread::scope(|scope| {
        let rest: Vec<_> =
            pieces[1..].iter().map(|&piece| scope.spawn(move || parse(piece))).collect();
        // In file order, so the first error met is the earliest line's.
        let mut routes = parse(pieces[0])?;
        for piece in rest {
            routes.extend(piece.join().unwrap_or_else(|e| std::panic::resume_unwind(e))?);
        }
        Ok::<_, DumpError>(routes)
    })?;
    match failed {
        Some(e) => Err(e.into()),
        None => Ok(routes),
    }
}

/// Cut `text` after a `\n` into `n` (at least one) pieces of about equal
/// length, in file order: `(start, end, number of its first line)`.
fn line_pieces(text: &[u8], n: usize) -> Vec<(usize, usize, usize)> {
    let n = n.max(1);
    let mut pieces = Vec::with_capacity(n);
    let (mut start, mut line) = (0, 1);
    for k in 1..n {
        let cut = (text.len() * k / n).max(start);
        let end = text[cut..].iter().position(|&b| b == b'\n').map_or(text.len(), |i| cut + i + 1);
        pieces.push((start, end, line));
        line += count_lines(&text[start..end]);
        start = end;
    }
    pieces.push((start, text.len(), line));
    pieces
}

/// The `\n`s in `bytes`, tallied 255 bytes at a time in a `u8`, which
/// the compiler vectorizes (a plain `filter().count()` it does not).
fn count_lines(bytes: &[u8]) -> usize {
    let tally = |chunk: &[u8]| chunk.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'));
    bytes.chunks(255).map(|chunk| usize::from(tally(chunk))).sum()
}

/// Parse a table from the text format: [`read_routes`] put into
/// ascending prefix order, a later duplicate prefix replacing the
/// earlier one.
pub fn read_dump<R: Read>(input: R) -> Result<BgpTable, DumpError> {
    Ok(BgpTable::from_entries(read_routes(input)?))
}

/// Serialise timed update batches to the update-stream text format.
pub fn write_updates<W: Write>(batches: &[UpdateBatch], mut out: W) -> Result<(), DumpError> {
    let n: usize = batches.iter().map(|b| b.updates.len()).sum();
    writeln!(out, "# backbone-elephants update stream: {n} updates in {} batches", batches.len())?;
    writeln!(out, "# time|A|prefix|next_hop|as_path|origin|peer_class")?;
    writeln!(out, "# time|W|prefix")?;
    for batch in batches {
        for update in &batch.updates {
            match update {
                RouteUpdate::Announce(e) => {
                    write!(out, "{}|A|", batch.at_unix)?;
                    write_route_fields(&mut out, e)?;
                }
                RouteUpdate::Withdraw(p) => {
                    writeln!(out, "{}|W|{}", batch.at_unix, p)?;
                }
            }
        }
    }
    Ok(())
}

/// Parse a timed update stream. Consecutive updates sharing a
/// timestamp coalesce into one [`UpdateBatch`]; timestamps must be
/// non-decreasing ([`DumpError::NonMonotonic`] otherwise).
pub fn read_updates<R: Read>(input: R) -> Result<Vec<UpdateBatch>, DumpError> {
    let mut batches: Vec<UpdateBatch> = Vec::new();
    for_each_record(BufReader::new(input), 1, |rec| {
        if rec.count < 3 {
            return Err(DumpError::FieldCount { line: rec.line, expected: 3, got: rec.count });
        }
        let [time, action, prefix, ..] = rec.fields;
        let at_unix: u64 = number(time).ok_or_else(|| bad_field(rec.line, "timestamp", time))?;
        if let Some(last) = batches.last() {
            if at_unix < last.at_unix {
                return Err(DumpError::NonMonotonic {
                    line: rec.line,
                    prev: last.at_unix,
                    got: at_unix,
                });
            }
        }
        let update = match action {
            "A" => RouteUpdate::Announce(parse_route_fields(rec.line, &rec.exactly(7)?[2..])?),
            "W" => {
                rec.exactly(3)?;
                RouteUpdate::Withdraw(
                    parse_prefix(prefix).ok_or_else(|| bad_field(rec.line, "prefix", prefix))?,
                )
            }
            other => return Err(bad_field(rec.line, "action", other)),
        };
        match batches.last_mut() {
            Some(last) if last.at_unix == at_unix => last.updates.push(update),
            _ => batches.push(UpdateBatch { at_unix, updates: vec![update] }),
        }
        Ok(())
    })?;
    Ok(batches)
}

/// The parser this module had before the byte-level one: `lines()`,
/// `split('|')` into a `Vec`, `str::parse` on every token. Kept,
/// unchanged, as the definition the reader above is tested against.
#[cfg(test)]
mod oracle {
    use std::io::{BufRead, BufReader, Read};
    use std::net::Ipv4Addr;

    use super::DumpError;
    use crate::{Origin, PeerClass, RouteEntry, RouteUpdate, UpdateBatch};

    /// Parse the five route fields (`prefix|next_hop|as_path|origin|
    /// peer_class`) shared by RIB dump lines and announce lines.
    fn parse_route_fields(line_no: usize, fields: &[&str]) -> Result<RouteEntry, DumpError> {
        debug_assert_eq!(fields.len(), 5);
        let prefix = fields[0].parse().map_err(|_| DumpError::BadField {
            line: line_no,
            field: "prefix",
            content: fields[0].to_string(),
        })?;
        let next_hop: Ipv4Addr = fields[1].parse().map_err(|_| DumpError::BadField {
            line: line_no,
            field: "next_hop",
            content: fields[1].to_string(),
        })?;
        let as_path = fields[2]
            .split_whitespace()
            .map(|t| {
                t.parse::<u32>().map_err(|_| DumpError::BadField {
                    line: line_no,
                    field: "as_path",
                    content: t.to_string(),
                })
            })
            .collect::<Result<Vec<u32>, _>>()?;
        let origin: Origin = fields[3].parse().map_err(|_| DumpError::BadField {
            line: line_no,
            field: "origin",
            content: fields[3].to_string(),
        })?;
        let peer_class: PeerClass = fields[4].parse().map_err(|_| DumpError::BadField {
            line: line_no,
            field: "peer_class",
            content: fields[4].to_string(),
        })?;
        Ok(RouteEntry { prefix, next_hop, as_path, origin, peer_class })
    }

    /// Parse a dump's routes, in file order (the parent commit's
    /// `read_dump`, which inserted each into a table instead).
    pub fn read_routes<R: Read>(input: R) -> Result<Vec<RouteEntry>, DumpError> {
        let reader = BufReader::new(input);
        let mut table = Vec::new();
        for (idx, line) in reader.lines().enumerate() {
            let line_no = idx + 1;
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split('|').collect();
            if fields.len() != 5 {
                return Err(DumpError::FieldCount {
                    line: line_no,
                    expected: 5,
                    got: fields.len(),
                });
            }
            table.push(parse_route_fields(line_no, &fields)?);
        }
        Ok(table)
    }

    /// Parse a timed update stream. Consecutive updates sharing a
    /// timestamp coalesce into one [`UpdateBatch`]; timestamps must be
    /// non-decreasing ([`DumpError::NonMonotonic`] otherwise).
    pub fn read_updates<R: Read>(input: R) -> Result<Vec<UpdateBatch>, DumpError> {
        let reader = BufReader::new(input);
        let mut batches: Vec<UpdateBatch> = Vec::new();
        for (idx, line) in reader.lines().enumerate() {
            let line_no = idx + 1;
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split('|').collect();
            if fields.len() < 3 {
                return Err(DumpError::FieldCount { line: line_no, expected: 3, got: fields.len() });
            }
            let at_unix: u64 = fields[0].parse().map_err(|_| DumpError::BadField {
                line: line_no,
                field: "timestamp",
                content: fields[0].to_string(),
            })?;
            if let Some(last) = batches.last() {
                if at_unix < last.at_unix {
                    return Err(DumpError::NonMonotonic {
                        line: line_no,
                        prev: last.at_unix,
                        got: at_unix,
                    });
                }
            }
            let update = match fields[1] {
                "A" => {
                    if fields.len() != 7 {
                        return Err(DumpError::FieldCount {
                            line: line_no,
                            expected: 7,
                            got: fields.len(),
                        });
                    }
                    RouteUpdate::Announce(parse_route_fields(line_no, &fields[2..7])?)
                }
                "W" => {
                    if fields.len() != 3 {
                        return Err(DumpError::FieldCount {
                            line: line_no,
                            expected: 3,
                            got: fields.len(),
                        });
                    }
                    RouteUpdate::Withdraw(fields[2].parse().map_err(|_| DumpError::BadField {
                        line: line_no,
                        field: "prefix",
                        content: fields[2].to_string(),
                    })?)
                }
                other => {
                    return Err(DumpError::BadField {
                        line: line_no,
                        field: "action",
                        content: other.to_string(),
                    });
                }
            };
            match batches.last_mut() {
                Some(last) if last.at_unix == at_unix => last.updates.push(update),
                _ => batches.push(UpdateBatch { at_unix, updates: vec![update] }),
            }
        }
        Ok(batches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Origin, PeerClass};

    fn sample_table() -> BgpTable {
        BgpTable::from_entries(vec![
            RouteEntry {
                prefix: "10.0.0.0/8".parse().unwrap(),
                next_hop: Ipv4Addr::new(192, 0, 2, 1),
                as_path: vec![1239, 701, 3356],
                origin: Origin::Igp,
                peer_class: PeerClass::Tier1,
            },
            RouteEntry {
                prefix: "172.16.0.0/12".parse().unwrap(),
                next_hop: Ipv4Addr::new(192, 0, 2, 9),
                as_path: vec![7018],
                origin: Origin::Incomplete,
                peer_class: PeerClass::Stub,
            },
        ])
    }

    #[test]
    fn round_trip() {
        let table = sample_table();
        let mut buf = Vec::new();
        write_dump(&table, &mut buf).unwrap();
        let back = read_dump(&buf[..]).unwrap();
        assert_eq!(back.len(), table.len());
        for e in table.iter() {
            assert_eq!(back.get(e.prefix), Some(e));
        }
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "\n# header\n\n10.0.0.0/8|192.0.2.1|1239|IGP|TIER1\n   \n";
        let t = read_dump(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn field_count_error_reports_line_and_expectation() {
        let text = "# ok\n10.0.0.0/8|192.0.2.1|1239\n";
        let err = read_dump(text.as_bytes()).unwrap_err();
        assert_eq!(err, DumpError::FieldCount { line: 2, expected: 5, got: 3 });
        assert_eq!(err.to_string(), "line 2: expected 5 fields, got 3");
    }

    #[test]
    fn bad_field_error_carries_offending_token() {
        let text = "10.0.0.0/8|192.0.2.1|12 bogus 34|IGP|TIER1\n";
        let err = read_dump(text.as_bytes()).unwrap_err();
        assert_eq!(
            err,
            DumpError::BadField { line: 1, field: "as_path", content: "bogus".to_string() }
        );
        assert_eq!(err.to_string(), "line 1: bad as_path: \"bogus\"");
    }

    #[test]
    fn bad_fields_are_specific() {
        let cases = [
            ("x/8|192.0.2.1|1|IGP|TIER1", "prefix"),
            ("10.0.0.0/8|bogus|1|IGP|TIER1", "next_hop"),
            ("10.0.0.0/8|192.0.2.1|abc|IGP|TIER1", "as_path"),
            ("10.0.0.0/8|192.0.2.1|1|XXX|TIER1", "origin"),
            ("10.0.0.0/8|192.0.2.1|1|IGP|YYY", "peer_class"),
        ];
        for (text, field) in cases {
            match read_dump(text.as_bytes()).unwrap_err() {
                DumpError::BadField { field: f, .. } => assert_eq!(f, field),
                other => panic!("expected BadField({field}), got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_as_path_round_trips() {
        let t = BgpTable::from_entries(vec![RouteEntry {
            prefix: "10.0.0.0/8".parse().unwrap(),
            next_hop: Ipv4Addr::new(1, 1, 1, 1),
            as_path: vec![],
            origin: Origin::Egp,
            peer_class: PeerClass::Tier2,
        }]);
        let mut buf = Vec::new();
        write_dump(&t, &mut buf).unwrap();
        let back = read_dump(&buf[..]).unwrap();
        assert_eq!(back.iter().next().unwrap().as_path, Vec::<u32>::new());
    }

    #[test]
    fn header_mentions_route_count() {
        let mut buf = Vec::new();
        write_dump(&sample_table(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("# backbone-elephants RIB dump: 2 routes"));
    }

    fn sample_batches() -> Vec<UpdateBatch> {
        vec![
            UpdateBatch {
                at_unix: 120,
                updates: vec![
                    RouteUpdate::Announce(RouteEntry {
                        prefix: "10.0.0.0/8".parse().unwrap(),
                        next_hop: Ipv4Addr::new(192, 0, 2, 1),
                        as_path: vec![1239, 701],
                        origin: Origin::Igp,
                        peer_class: PeerClass::Tier1,
                    }),
                    RouteUpdate::Withdraw("172.16.0.0/12".parse().unwrap()),
                ],
            },
            UpdateBatch {
                at_unix: 300,
                updates: vec![RouteUpdate::Announce(RouteEntry {
                    prefix: "10.0.0.0/8".parse().unwrap(),
                    next_hop: Ipv4Addr::new(192, 0, 2, 9),
                    as_path: vec![],
                    origin: Origin::Egp,
                    peer_class: PeerClass::Tier2,
                })],
            },
        ]
    }

    #[test]
    fn update_stream_round_trips() {
        let batches = sample_batches();
        let mut buf = Vec::new();
        write_updates(&batches, &mut buf).unwrap();
        let back = read_updates(&buf[..]).unwrap();
        assert_eq!(back, batches);
    }

    #[test]
    fn update_stream_coalesces_equal_timestamps() {
        let text = "5|W|10.0.0.0/8\n5|W|172.16.0.0/12\n9|W|192.168.0.0/16\n";
        let batches = read_updates(text.as_bytes()).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].updates.len(), 2);
        assert_eq!(batches[1].at_unix, 9);
    }

    #[test]
    fn malformed_update_stream_errors_are_typed() {
        // (input, expected error) — every failure names the line and
        // the offending token, never a stringly blob.
        let cases: Vec<(&str, DumpError)> = vec![
            (
                "nope|W|10.0.0.0/8\n",
                DumpError::BadField { line: 1, field: "timestamp", content: "nope".into() },
            ),
            (
                "# hdr\n5|X|10.0.0.0/8\n",
                DumpError::BadField { line: 2, field: "action", content: "X".into() },
            ),
            (
                "5|W|10.0.0.0/8|extra\n",
                DumpError::FieldCount { line: 1, expected: 3, got: 4 },
            ),
            (
                "5|A|10.0.0.0/8|192.0.2.1|1239|IGP\n",
                DumpError::FieldCount { line: 1, expected: 7, got: 6 },
            ),
            ("5|W\n", DumpError::FieldCount { line: 1, expected: 3, got: 2 }),
            (
                "5|A|10.0.0.0/8|192.0.2.1|1239|XXX|TIER1\n",
                DumpError::BadField { line: 1, field: "origin", content: "XXX".into() },
            ),
            (
                "5|W|999.0.0.0/8\n",
                DumpError::BadField { line: 1, field: "prefix", content: "999.0.0.0/8".into() },
            ),
            (
                "9|W|10.0.0.0/8\n5|W|172.16.0.0/12\n",
                DumpError::NonMonotonic { line: 2, prev: 9, got: 5 },
            ),
        ];
        for (text, want) in cases {
            assert_eq!(read_updates(text.as_bytes()).unwrap_err(), want, "input {text:?}");
        }
    }

    #[test]
    fn writers_emit_these_exact_bytes() {
        let mut buf = Vec::new();
        write_dump(&sample_table(), &mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "# backbone-elephants RIB dump: 2 routes\n\
             # prefix|next_hop|as_path|origin|peer_class\n\
             10.0.0.0/8|192.0.2.1|1239 701 3356|IGP|TIER1\n\
             172.16.0.0/12|192.0.2.9|7018|INCOMPLETE|STUB\n"
        );
        let mut buf = Vec::new();
        write_updates(&sample_batches(), &mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "# backbone-elephants update stream: 3 updates in 2 batches\n\
             # time|A|prefix|next_hop|as_path|origin|peer_class\n\
             # time|W|prefix\n\
             120|A|10.0.0.0/8|192.0.2.1|1239 701|IGP|TIER1\n\
             120|W|172.16.0.0/12\n\
             300|A|10.0.0.0/8|192.0.2.9||EGP|TIER2\n"
        );
    }

    #[test]
    fn read_routes_keeps_file_order_and_duplicates() {
        let text = "10.1.0.0/16|192.0.2.1|1|IGP|TIER1\n\
                    9.0.0.0/8|192.0.2.2|2|IGP|TIER1\n\
                    10.1.0.0/16|192.0.2.3|3|EGP|STUB\n";
        let routes = read_routes(text.as_bytes()).unwrap();
        let hops: Vec<u8> = routes.iter().map(|e| e.next_hop.octets()[3]).collect();
        assert_eq!(hops, [1, 2, 3]);
        // The table keeps the last of the two 10.1/16 routes.
        let table = read_dump(text.as_bytes()).unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.get("10.1.0.0/16".parse().unwrap()).unwrap().as_path, [3]);
    }

    #[test]
    fn non_utf8_is_a_parse_error_with_its_line_not_an_io_error() {
        let utf8 = |line, content: &str| DumpError::BadField {
            line,
            field: "utf8",
            content: content.to_string(),
        };
        // In a field, in a comment, before a `\r\n`, on an unterminated
        // last line: always the line it is on, decoded lossily, without
        // its line ending.
        let dump = b"# ok\n10.0.0.0/8|192.0.2.1|1239|IGP|TIER1\n10.0.0.0/8|192.0.2.1|12\xff39|IGP|TIER1\r\n";
        assert_eq!(
            read_dump(&dump[..]).unwrap_err(),
            utf8(3, "10.0.0.0/8|192.0.2.1|12\u{fffd}39|IGP|TIER1")
        );
        assert_eq!(read_routes(&dump[..]).unwrap_err(), read_dump(&dump[..]).unwrap_err());
        assert_eq!(read_dump(&b"# caf\xe9\n"[..]).unwrap_err(), utf8(1, "# caf\u{fffd}"));
        assert_eq!(
            read_updates(&b"5|W|10.0.0.0/8\n\n7|W|172.16.0.0/12\xc3"[..]).unwrap_err(),
            utf8(3, "7|W|172.16.0.0/12\u{fffd}")
        );
        // An earlier line's own error still comes first.
        assert_eq!(
            read_updates(&b"5|X|10.0.0.0/8\n\xff\n"[..]).unwrap_err(),
            DumpError::BadField { line: 1, field: "action", content: "X".into() }
        );
        assert_eq!(
            utf8(3, "x").to_string(),
            "line 3: bad utf8: \"x\"",
            "reported like every other bad field"
        );
    }

    /// Two good lines, then the read fails.
    struct FailingRead(usize);

    impl Read for FailingRead {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            const TEXT: &[u8] = b"5|W|10.0.0.0/8\n6|W|10.0.0.0/8\n";
            if self.0 == TEXT.len() {
                return Err(io::Error::other("disk on fire"));
            }
            let n = buf.len().min(TEXT.len() - self.0).min(7);
            buf[..n].copy_from_slice(&TEXT[self.0..self.0 + n]);
            self.0 += n;
            Ok(n)
        }
    }

    #[test]
    fn a_failing_read_is_still_an_io_error() {
        assert_eq!(
            read_updates(FailingRead(0)).unwrap_err(),
            DumpError::Io("disk on fire".to_string())
        );
        // The same bytes are not a dump: the first line's error wins.
        assert_eq!(
            read_dump(FailingRead(0)).unwrap_err(),
            DumpError::FieldCount { line: 1, expected: 5, got: 3 }
        );
    }

    /// `self.0`, seven bytes a read, then a read that fails.
    struct FailsAfter(&'static [u8], usize);

    impl Read for FailsAfter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let rest = &self.0[self.1..];
            if rest.is_empty() {
                return Err(io::Error::other("disk on fire"));
            }
            let n = buf.len().min(rest.len()).min(7);
            buf[..n].copy_from_slice(&rest[..n]);
            self.1 += n;
            Ok(n)
        }
    }

    #[test]
    fn a_failing_read_fails_alike_in_every_piece_count() {
        let good = b"# hdr\n10.0.0.0/8|192.0.2.1|1|IGP|TIER1\n9.0.0.0/8|192.0.2.1|1|IGP|TI";
        let bad = b"10.0.0.0/8|192.0.2.1|1|IGP|TIER1\n\n9.0.0.0/8|192.0.2.1|x|IGP|TIER1\n10.1";
        for pieces in [1, 2, 3, 7] {
            assert_eq!(
                read_routes_in(FailingRead(0), |_| pieces).unwrap_err(),
                DumpError::FieldCount { line: 1, expected: 5, got: 3 },
                "{pieces} pieces"
            );
            // The completed lines parse, the cut one is not read, and the
            // read's error is the answer ...
            assert_eq!(
                read_routes_in(FailsAfter(good, 0), |_| pieces).unwrap_err(),
                DumpError::Io("disk on fire".to_string()),
                "{pieces} pieces"
            );
            // ... unless a completed line is wrong.
            assert_eq!(
                read_routes_in(FailsAfter(bad, 0), |_| pieces).unwrap_err(),
                DumpError::BadField { line: 3, field: "as_path", content: "x".to_string() },
                "{pieces} pieces"
            );
        }
    }

    #[test]
    fn pieces_end_at_line_ends_and_know_their_first_line() {
        let text = b"a\n\nbc\r\nd\n\n\nef";
        for n in 1..=text.len() + 2 {
            let pieces = line_pieces(text, n);
            assert_eq!(pieces.len(), n);
            let mut at = (0, 1);
            for &(start, end, line) in &pieces {
                assert_eq!((start, line), at, "{n} pieces: {pieces:?}");
                assert!(end == text.len() || text[end - 1] == b'\n', "{n} pieces: {pieces:?}");
                at = (end, line + text[start..end].iter().filter(|&&b| b == b'\n').count());
            }
            assert_eq!(at.0, text.len());
        }
        // One piece a byte: every line end is a cut.
        let ends: Vec<usize> = line_pieces(text, text.len()).iter().map(|p| p.1).collect();
        for (i, _) in text.iter().enumerate().filter(|&(_, &b)| b == b'\n') {
            assert!(ends.contains(&(i + 1)), "no cut after byte {i}: {ends:?}");
        }
    }

    #[test]
    fn a_dump_cut_at_every_line_boundary_reads_as_one() {
        // Six routes between comments and blank lines; each route line
        // broken in turn, and none.
        let lines = [
            "# header",
            "10.0.0.0/8|192.0.2.1|1239 701|IGP|TIER1",
            "",
            "10.1.0.0/16|192.0.2.2|7018|EGP|STUB",
            "9.0.0.0/8|192.0.2.3||INCOMPLETE|TIER2",
            "# note",
            "10.1.0.0/16|192.0.2.4|3356 1|IGP|TIER1",
            "  172.16.0.0/12|192.0.2.5|1|IGP|TIER1\r",
            "192.0.2.128/25|192.0.2.6|64512|EGP|STUB",
        ];
        for broken in [None, Some(1), Some(3), Some(4), Some(6), Some(7), Some(8)] {
            let text: Vec<u8> = lines
                .iter()
                .enumerate()
                .map(|(i, l)| if Some(i) == broken { l.replace('|', "/") } else { l.to_string() })
                .collect::<Vec<_>>()
                .join("\n")
                .into_bytes();
            let one = read_routes_in(&text[..], |_| 1);
            assert_eq!(one.is_err(), broken.is_some());
            assert_eq!(read_routes_in(&text[..], |len| len), one, "line {broken:?} broken");
        }
    }

    mod differential {
        //! The byte-level reader against [`oracle`]: on valid dumps and
        //! update streams and on seeded damage to them, the same routes
        //! in the same order or the same error — variant, line, field
        //! and content — and never a panic. The one intended difference,
        //! a line that is not UTF-8, is computed independently here.

        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        use super::super::*;
        use crate::{Origin, PeerClass};

        fn route() -> impl Strategy<Value = RouteEntry> {
            // A small address pool so prefixes repeat within one dump.
            let bits = prop_oneof![any::<u32>(), (0u32..4).prop_map(|i| 0x0A00_0000 | i << 16)];
            let asn = prop_oneof![1u32..65_536, any::<u32>()];
            (bits, 0u8..=32, any::<u32>(), prop::collection::vec(asn, 0..7), 0u8..3, 0u8..3)
                .prop_map(|(bits, len, hop, as_path, origin, class)| RouteEntry {
                    prefix: Prefix::from_u32(bits, len).unwrap(),
                    next_hop: Ipv4Addr::from(hop),
                    as_path,
                    origin: [Origin::Igp, Origin::Egp, Origin::Incomplete][origin as usize],
                    peer_class: [PeerClass::Tier1, PeerClass::Tier2, PeerClass::Stub]
                        [class as usize],
                })
        }

        /// A dump as a writer would produce it, except that routes come
        /// in any order and prefixes may repeat.
        fn dump_text(routes: &[RouteEntry]) -> Vec<u8> {
            let mut out = b"# header\n".to_vec();
            for e in routes {
                write_route_fields(&mut out, e).unwrap();
            }
            out
        }

        fn stream_text(updates: &[(u8, bool, RouteEntry)]) -> Vec<u8> {
            let mut at = 100u64;
            let batches: Vec<UpdateBatch> = updates
                .iter()
                .map(|(step, announce, e)| {
                    at += u64::from(*step);
                    let update = if *announce {
                        RouteUpdate::Announce(e.clone())
                    } else {
                        RouteUpdate::Withdraw(e.prefix)
                    };
                    UpdateBatch { at_unix: at, updates: vec![update] }
                })
                .collect();
            let mut out = Vec::new();
            write_updates(&batches, &mut out).unwrap();
            out
        }

        /// Tokens `str::parse` treats in ways a hand-written parser gets
        /// wrong: signs, leading zeros, range edges, short and long
        /// quads, non-space whitespace, non-ASCII digits and blanks.
        const TOKENS: &[&str] = &[
            "+7", "007", "256", "255", "0", "00", "-1", "4294967295", "4294967296",
            "00000000000000000000007", "18446744073709551616", "1.2.3.4/33", "1.2.3.4/32",
            "1.2.3.4/+8", "1.2.3.4/008", "1.2.3.4/", "/8", "1.2.3/8", "1.2.3.4.5/8",
            "01.2.3.4/8", "1.2.3.256/8", "1.2.3.4/8/9", "1.2.3", "01.2.3.4", "1.2.3.4",
            "+1.2.3.4", "1..3.4", "1.2.3.4.", "", " ", "1 2", "1  2 ", "1\t2", "1\u{b}2",
            "1\u{a0}2", "1\u{2003}2", "\u{663}", "igp", "IGP ", "INCOMPLETE", "TIER3", "A", "W", "#",
        ];

        /// The start and end (newline excluded) of line `k` of `text`.
        fn line_span(text: &[u8], k: usize) -> (usize, usize) {
            let mut start = 0;
            for (i, line) in text.split(|&b| b == b'\n').enumerate() {
                if i == k {
                    return (start, start + line.len());
                }
                start += line.len() + 1;
            }
            (text.len(), text.len())
        }

        /// Every damaged version of `text` that `seed` selects.
        fn mutations(text: &[u8], seed: u64) -> Vec<Vec<u8>> {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_lines = text.split(|&b| b == b'\n').count();
            let (start, end) = line_span(text, rng.gen_range(0..n_lines));
            let at = |rng: &mut StdRng| rng.gen_range(start..=end).min(text.len());
            let splice = |from: usize, to: usize, with: &[u8]| {
                [&text[..from], with, &text[to..]].concat()
            };
            let mut out = vec![text.to_vec()];
            // Byte flips, half of them to bytes that are not ASCII.
            for _ in 0..4 {
                let i = at(&mut rng);
                let byte = if rng.gen_bool(0.5) { rng.gen_range(0x80..=0xFFu8) } else { rng.gen() };
                out.push(splice(i, (i + 1).min(text.len()), &[byte]));
            }
            // The chosen line cut at every offset, as the last line.
            out.extend((start..=end).map(|cut| text[..cut].to_vec()));
            // A `|` too many, a `|` too few.
            let i = at(&mut rng);
            out.push(splice(i, i, b"|"));
            if let Some(bar) = text[start..end].iter().position(|&b| b == b'|') {
                out.push(splice(start + bar, start + bar + 1, b""));
            }
            // Line endings and blanks.
            out.push(String::from_utf8_lossy(text).replace('\n', "\r\n").into_bytes());
            out.push(splice(end, end, b" \t "));
            out.push(splice(start, start, b"\t "));
            out.push(text.strip_suffix(b"\n").unwrap_or(text).to_vec());
            out.push(splice(end, end, b"\n\n   \n# note"));
            // The chosen line twice (a duplicate prefix; a repeated time).
            out.push(splice(start, start, &[&text[start..end], &b"\n"[..]].concat()));
            // One field of the chosen line replaced by each hard token.
            let bars: Vec<usize> = (start..end).filter(|&i| text[i] == b'|').collect();
            let field = rng.gen_range(0..=bars.len());
            let from = if field == 0 { start } else { bars[field - 1] + 1 };
            let to = bars.get(field).copied().unwrap_or(end);
            out.extend(TOKENS.iter().map(|t| splice(from, to, t.as_bytes())));
            // ... and one token inside the AS path, when there is one.
            if bars.len() >= 4 {
                let (from, to) = (bars[bars.len() - 3] + 1, bars[bars.len() - 2]);
                let t = TOKENS[rng.gen_range(0..TOKENS.len())];
                out.push(splice(from, from, format!("{t} ").as_bytes()));
                out.push(splice(to, to, format!(" {t}").as_bytes()));
            }
            out
        }

        /// What the reader must say about `text` when the oracle's
        /// `lines()` gave up on it: the first line that is not UTF-8.
        fn utf8_error(text: &[u8]) -> DumpError {
            let (i, line) = text
                .split(|&b| b == b'\n')
                .enumerate()
                .find(|(_, line)| std::str::from_utf8(line).is_err())
                .expect("the oracle reported invalid UTF-8");
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            DumpError::BadField {
                line: i + 1,
                field: "utf8",
                content: String::from_utf8_lossy(line).into_owned(),
            }
        }

        fn agree<T: PartialEq + std::fmt::Debug>(
            text: &[u8],
            new: Result<T, DumpError>,
            old: Result<T, DumpError>,
        ) {
            let shown = String::from_utf8_lossy(text);
            match old {
                Err(DumpError::Io(_)) => assert_eq!(new, Err(utf8_error(text)), "input {shown:?}"),
                old => assert_eq!(new, old, "input {shown:?}"),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn read_routes_matches_the_oracle(
                routes in prop::collection::vec(route(), 0..12),
                seed in any::<u64>(),
            ) {
                let text = dump_text(&routes);
                prop_assert_eq!(read_routes(&text[..]), Ok(routes));
                for damaged in mutations(&text, seed) {
                    agree(&damaged, read_routes(&damaged[..]), oracle::read_routes(&damaged[..]));
                }
            }

            #[test]
            fn read_updates_matches_the_oracle(
                updates in prop::collection::vec((0u8..3, any::<bool>(), route()), 0..12),
                seed in any::<u64>(),
            ) {
                let text = stream_text(&updates);
                prop_assert!(read_updates(&text[..]).is_ok());
                for damaged in mutations(&text, seed) {
                    agree(&damaged, read_updates(&damaged[..]), oracle::read_updates(&damaged[..]));
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The same corpus cut into 2, 3 and 7 pieces: the same routes
            /// in the same order, or the same error.
            #[test]
            fn read_routes_is_one_reader_at_every_piece_count(
                routes in prop::collection::vec(route(), 0..12),
                seed in any::<u64>(),
            ) {
                for damaged in mutations(&dump_text(&routes), seed) {
                    let one = read_routes_in(&damaged[..], |_| 1);
                    for pieces in [2, 3, 7] {
                        prop_assert_eq!(
                            read_routes_in(&damaged[..], |_| pieces),
                            one.clone(),
                            "{} pieces, input {:?}",
                            pieces,
                            String::from_utf8_lossy(&damaged)
                        );
                    }
                }
            }
        }

        #[test]
        fn every_hard_token_in_every_field_matches_the_oracle() {
            // Exhaustive where the proptest samples: 5 + 7 fields × every
            // token, on a dump line and on an announce line.
            let fields = ["5", "A", "10.1.0.0/16", "192.0.2.1", "1239 701", "IGP", "TIER1"];
            for k in 0..fields.len() {
                for token in TOKENS {
                    let mut line = fields;
                    line[k] = token;
                    let announce = format!("{}\n", line.join("|")).into_bytes();
                    agree(&announce, read_updates(&announce[..]), oracle::read_updates(&announce[..]));
                    let dump = format!("{}\n", line[2..].join("|")).into_bytes();
                    agree(&dump, read_routes(&dump[..]), oracle::read_routes(&dump[..]));
                }
            }
        }
    }
}
