//! The byte-level codec behind `SampleStore::export_csv` and
//! `SampleStore::import_csv`. The dump is ASCII and a series' rows are
//! adjacent and start with the same `source,counter,` bytes, so neither
//! direction needs `fmt`, a `String` per row or a label parse per row.

use std::collections::HashMap;
use std::io::{self, BufRead, Write};

use crate::batch::SourceId;
use crate::series::Series;
use crate::store::{counter_label, parse_counter_label, SeriesKey};

const HEADER: &str = "source,counter,timestamp_ns,value";

/// Rows are staged and handed to the writer in blocks this large, so an
/// unbuffered `File` sees one `write` per ~2000 rows, not one per row.
const STAGE_BYTES: usize = 64 * 1024;

/// "00", "01", … "99": two decimal digits per division.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        let pair = (n % 100) as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        n /= 100;
        if n == 0 {
            break;
        }
    }
    // The leading pair may be "0d".
    at += usize::from(buf[at] == b'0');
    out.extend_from_slice(&buf[at..]);
}

/// Writes `map` as `source,counter,timestamp_ns,value` rows, series in key
/// order.
pub(crate) fn export<W: Write>(map: &HashMap<SeriesKey, Series>, mut w: W) -> io::Result<()> {
    let mut out = Vec::with_capacity(STAGE_BYTES + 128);
    out.extend_from_slice(HEADER.as_bytes());
    out.push(b'\n');
    let mut keys: Vec<&SeriesKey> = map.keys().collect();
    keys.sort_unstable();
    for key in keys {
        let s = &map[key];
        let prefix = format!("{},{},", key.source.0, counter_label(key.counter));
        for (&t, &v) in s.ts.iter().zip(&s.vs) {
            out.extend_from_slice(prefix.as_bytes());
            push_decimal(&mut out, t);
            out.push(b',');
            push_decimal(&mut out, v);
            out.push(b'\n');
            if out.len() >= STAGE_BYTES {
                w.write_all(&out)?;
                out.clear();
            }
        }
    }
    w.write_all(&out)
}

/// Reads a dump back into series. Lines are taken straight out of the
/// reader's buffer; only a line that straddles a refill is copied.
pub(crate) fn import<R: BufRead>(mut r: R) -> io::Result<HashMap<SeriesKey, Series>> {
    let mut rows = Rows::default();
    let mut straddling = Vec::new();
    loop {
        let buf = match r.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let filled = buf.len();
        if filled == 0 {
            break;
        }
        let mut rest = buf;
        while let Some(end) = rest.iter().position(|&b| b == b'\n') {
            let line = if straddling.is_empty() {
                &rest[..end]
            } else {
                straddling.extend_from_slice(&rest[..end]);
                &straddling
            };
            rows.line(line, true)?;
            straddling.clear();
            rest = &rest[end + 1..];
        }
        straddling.extend_from_slice(rest);
        r.consume(filled);
    }
    if !straddling.is_empty() {
        rows.line(&straddling, false)?;
    }
    if rows.lines == 0 {
        return Err(invalid("empty file".into()));
    }
    let finished = rows.series.into_iter().map(|(key, series)| {
        let Series { mut ts, mut vs } = series;
        if !ts.is_sorted() {
            // Stable: rows sharing a timestamp keep file order, as
            // `Series::merge_from` (self first on ties) keeps them.
            let mut pts: Vec<(u64, u64)> = ts.into_iter().zip(vs).collect();
            pts.sort_by_key(|&(t, _)| t);
            (ts, vs) = pts.into_iter().unzip();
        }
        ts.shrink_to_fit();
        vs.shrink_to_fit();
        (key, Series { ts, vs })
    });
    Ok(finished.collect())
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// As `BufRead::lines` reports a non-UTF-8 line.
fn as_text(line: &[u8]) -> io::Result<&str> {
    std::str::from_utf8(line).map_err(|_| invalid("stream did not contain valid UTF-8".into()))
}

/// A leading run of 1 to 19 ASCII digits (so it cannot overflow) and what
/// follows it. Every other spelling of a number is left to `str::parse`.
fn plain_u64(s: &[u8]) -> Option<(u64, &[u8])> {
    let mut n = 0u64;
    let mut len = 0;
    while let Some(d) = s.get(len).map(|b| b.wrapping_sub(b'0')) {
        if d > 9 || len == 19 {
            break;
        }
        n = n * 10 + u64::from(d);
        len += 1;
    }
    (len > 0).then(|| (n, &s[len..]))
}

/// `timestamp,value`, both plain, and nothing after.
fn plain_pair(s: &[u8]) -> Option<(u64, u64)> {
    let (t, s) = plain_u64(s)?;
    let (v, s) = plain_u64(s.strip_prefix(b",")?)?;
    s.is_empty().then_some((t, v))
}

/// The import's state between lines.
#[derive(Default)]
struct Rows {
    lines: usize,
    slots: HashMap<SeriesKey, usize>,
    series: Vec<(SeriesKey, Series)>,
    /// The `source,counter,` bytes of the last row that went through
    /// [`Rows::resolve`], and the slot they resolved to: a row that starts
    /// with the same bytes belongs to the same series.
    prefix: Vec<u8>,
    current: usize,
}

impl Rows {
    /// One line without its `\n`; `terminated` says whether it had one.
    fn line(&mut self, raw: &[u8], terminated: bool) -> io::Result<()> {
        self.lines += 1;
        // `BufRead::lines` drops a '\r' before the '\n'; the importer has
        // always dropped one more from a row, though not from the header.
        let mut line = raw;
        for _ in 0..usize::from(terminated) + usize::from(self.lines > 1) {
            line = line.strip_suffix(b"\r").unwrap_or(line);
        }
        if self.lines == 1 {
            // One byte-order mark (Excel and Notepad write it) may lead.
            let header = as_text(line)?;
            if header.strip_prefix('\u{feff}').unwrap_or(header).trim() != HEADER {
                return Err(invalid(format!("unexpected header: {header}")));
            }
        } else if let Some((t, v)) = self.same_series(line).and_then(plain_pair) {
            self.push(t, v);
        } else {
            self.resolve(line)?;
        }
        Ok(())
    }

    /// What follows the remembered prefix, if `line` starts with it.
    fn same_series<'a>(&self, line: &'a [u8]) -> Option<&'a [u8]> {
        line.strip_prefix(self.prefix.as_slice())
            .filter(|_| !self.prefix.is_empty())
    }

    /// Every row the prefix shortcut did not take: the first of a run,
    /// blank lines, and anything not spelled the way the exporter spells it.
    fn resolve(&mut self, line: &[u8]) -> io::Result<()> {
        let line = as_text(line)?;
        if line.trim().is_empty() {
            return Ok(());
        }
        let row = self.lines;
        let bad = |msg: &str| invalid(format!("row {row}: {msg}: {line}"));
        let mut columns = line.split(',');
        let mut next = || columns.next();
        let (Some(source), Some(label), Some(t), Some(v), None) =
            (next(), next(), next(), next(), next())
        else {
            let found = line.split(',').count();
            return Err(bad(&format!("expected 4 columns, found {found}")));
        };
        let prefix_len = source.len() + label.len() + 2;
        let key = SeriesKey {
            source: SourceId(source.parse().map_err(|_| bad("bad source"))?),
            counter: parse_counter_label(label).ok_or_else(|| bad("bad counter"))?,
        };
        let t = t.parse().map_err(|_| bad("bad timestamp"))?;
        let v = v.parse().map_err(|_| bad("bad value"))?;
        self.current = *self.slots.entry(key).or_insert(self.series.len());
        if self.current == self.series.len() {
            self.series.push((key, Series::new()));
        }
        self.prefix.clear();
        self.prefix
            .extend_from_slice(&line.as_bytes()[..prefix_len]);
        self.push(t, v);
        Ok(())
    }

    fn push(&mut self, t: u64, v: u64) {
        let series = &mut self.series[self.current].1;
        series.ts.push(t);
        series.vs.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{counter_kinds, SampleStore};
    use std::io::BufReader;
    use uburst_asic::CounterId;
    use uburst_sim::node::PortId;
    use uburst_sim::rng::Rng;

    type Map = HashMap<SeriesKey, Series>;

    /// The exporter this codec replaced, kept as the reference.
    fn oracle_export<W: Write>(map: &Map, mut w: W) -> io::Result<()> {
        writeln!(w, "source,counter,timestamp_ns,value")?;
        let mut keys: Vec<&SeriesKey> = map.keys().collect();
        keys.sort_unstable();
        for key in keys {
            let s = &map[key];
            let cname = counter_label(key.counter);
            for (&t, &v) in s.ts.iter().zip(&s.vs) {
                writeln!(w, "{},{},{},{}", key.source.0, cname, t, v)?;
            }
        }
        Ok(())
    }

    /// The importer this codec replaced, kept as the reference: a `String`
    /// per row, every label parsed, rows buffered per key, then one sort and
    /// one `merge_from` per series. It reads four fields and ignores the
    /// rest, and knows nothing of byte-order marks.
    fn oracle_import<R: BufRead>(r: R) -> io::Result<Map> {
        let mut lines = r.lines();
        let header = lines
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty file"))??;
        if header.trim() != "source,counter,timestamp_ns,value" {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected header: {header}"),
            ));
        }
        let mut rows: HashMap<SeriesKey, Vec<(u64, u64)>> = HashMap::new();
        for (lineno, line) in lines.enumerate() {
            let line = line?;
            let line = line.strip_suffix('\r').unwrap_or(&line);
            if line.trim().is_empty() {
                continue;
            }
            let bad = |msg: &str| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("row {}: {msg}: {line}", lineno + 2),
                )
            };
            let mut parts = line.split(',');
            let source = parts
                .next()
                .and_then(|s| s.parse::<u32>().ok())
                .ok_or_else(|| bad("bad source"))?;
            let counter = parts
                .next()
                .and_then(parse_counter_label)
                .ok_or_else(|| bad("bad counter"))?;
            let t = parts
                .next()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| bad("bad timestamp"))?;
            let v = parts
                .next()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| bad("bad value"))?;
            let key = SeriesKey {
                source: SourceId(source),
                counter,
            };
            rows.entry(key).or_default().push((t, v));
        }
        let mut map = Map::new();
        for (key, mut pts) in rows {
            pts.sort_by_key(|&(t, _)| t);
            let mut series = Series::new();
            for (t, v) in pts {
                series.ts.push(t);
                series.vs.push(v);
            }
            map.entry(key).or_default().merge_from(&series);
        }
        Ok(map)
    }

    /// What an import came to, in a shape `assert_eq!` can print.
    fn outcome(r: io::Result<Map>) -> Result<Map, (io::ErrorKind, String)> {
        r.map_err(|e| (e.kind(), e.to_string()))
    }

    fn exported(map: &Map) -> Vec<u8> {
        let mut out = Vec::new();
        export(map, &mut out).expect("writing to memory cannot fail");
        out
    }

    /// Numbers of every decimal length, at and around each power of ten.
    fn edge_numbers(rng: &mut Rng) -> Vec<u64> {
        let mut ns = vec![0, 9, 10, 99, 100, u64::MAX];
        let mut p = 1u64;
        for _ in 0..19 {
            p *= 10;
            ns.extend([p - 1, p, p + 1, rng.range(p / 10, p)]);
        }
        ns
    }

    #[test]
    fn export_matches_the_fmt_exporter_byte_for_byte() {
        let mut rng = Rng::new(17);
        let numbers = edge_numbers(&mut rng);
        let mut map = Map::new();
        assert_eq!(exported(&map), b"source,counter,timestamp_ns,value\n");
        for (p, port) in [0, 31, u16::MAX].into_iter().enumerate() {
            for (b, bin) in [0, 6, u8::MAX].into_iter().enumerate() {
                for counter in counter_kinds(PortId(port), bin) {
                    let source = SourceId([0, 7, u32::MAX][(p + b) % 3]);
                    let series = map.entry(SeriesKey { source, counter }).or_default();
                    for _ in 0..numbers.len() {
                        series.ts.push(*rng.pick(&numbers));
                        series.vs.push(*rng.pick(&numbers));
                    }
                    series.ts.extend(&numbers);
                    series.vs.extend(numbers.iter().rev());
                }
            }
        }
        map.insert(
            SeriesKey {
                source: SourceId(3),
                counter: CounterId::BufferLevel,
            },
            Series::new(),
        );
        let mut reference = Vec::new();
        oracle_export(&map, &mut reference).unwrap();
        assert!(exported(&map) == reference, "exporters disagree");
        // Through the store, the same bytes again.
        let store = SampleStore::import_csv(reference.as_slice()).unwrap();
        let mut again = Vec::new();
        store.export_csv(&mut again).unwrap();
        let sorted = oracle_import(reference.as_slice()).unwrap();
        let mut sorted_reference = Vec::new();
        oracle_export(&sorted, &mut sorted_reference).unwrap();
        assert!(again == sorted_reference, "store round trip disagrees");
    }

    // ---- importer: seeded hostile dumps, new against old ----

    fn random_key(rng: &mut Rng) -> SeriesKey {
        let port = *rng.pick(&[0, 1, 31, 100, u16::MAX]);
        let bin = *rng.pick(&[0, 6, u8::MAX]);
        SeriesKey {
            source: SourceId(*rng.pick(&[0, 5, 5, 50, u32::MAX])),
            counter: *rng.pick(&counter_kinds(PortId(port), bin)),
        }
    }

    /// A well-formed dump's rows (no header): a few series, timestamps
    /// mostly rising with some backwards and some repeated, series either
    /// contiguous or interleaved row by row.
    fn base_rows(rng: &mut Rng) -> Vec<Vec<u8>> {
        let mut rows = Vec::new();
        for _ in 0..rng.range(1, 6) {
            let key = random_key(rng);
            let prefix = format!("{},{},", key.source.0, counter_label(key.counter));
            let mut t = rng.below(1000);
            for _ in 0..rng.range(1, 12) {
                match rng.below(8) {
                    0 => t = t.saturating_sub(rng.range(1, 50)),
                    1 => {}
                    _ => t += rng.range(1, 50),
                }
                rows.push(format!("{prefix}{t},{}", rng.below(1_000_000)).into_bytes());
            }
        }
        match rng.below(3) {
            0 => rng.shuffle(&mut rows),
            1 => {
                // Swap a few rows: mostly-contiguous runs, broken up.
                for _ in 0..3 {
                    let (a, b) = (rng.below(rows.len() as u64), rng.below(rows.len() as u64));
                    rows.swap(a as usize, b as usize);
                }
            }
            _ => {}
        }
        rows
    }

    const ODD_FIELDS: &[&str] = &[
        "+5",
        " 5",
        "5 ",
        "-1",
        "",
        "0",
        "0000000000000000000000007",
        "4294967295",
        "4294967296",
        "9999999999999999999",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999",
        "5\r",
        "٥",
        "tx_bytes[1]",
        " tx_bytes[ 1 ] ",
        "tx_bytes[1:2]",
        "tx_size_hist[9,2]",
        "rx_size_hist[3:256]",
        "buffer_peak",
        "buffer_peak[0]",
        "drops[65536]",
    ];

    const ODD_LINES: &[&[u8]] = &[
        b"",
        b"   ",
        b"\t",
        b"\r",
        b"\r\r",
        b"\r\r\r",
        "\u{a0}".as_bytes(),
        "\u{2003}\u{3000}".as_bytes(),
        "\u{feff}".as_bytes(),
        b",,,",
        b"\xff",
        b"source,counter,timestamp_ns,value",
    ];

    const ODD_BYTES: &[u8] = b",,\r\n +-09[]:\x00\xff\xc3x";

    fn mutate(rng: &mut Rng, rows: &mut Vec<Vec<u8>>) {
        let at = rng.below(rows.len() as u64) as usize;
        match rng.below(9) {
            0 => {
                // One byte replaced, or one bit flipped.
                if let Some(len) = std::num::NonZeroUsize::new(rows[at].len()) {
                    let i = rng.below(len.get() as u64) as usize;
                    if rng.chance(0.5) {
                        rows[at][i] = *rng.pick(ODD_BYTES);
                    } else {
                        rows[at][i] ^= 1 << rng.below(8);
                    }
                }
            }
            1 => {
                let keep = rng.below(rows[at].len() as u64 + 1) as usize;
                rows[at].truncate(keep);
            }
            2 => {
                let row = rows[at].clone();
                rows.insert(at, row);
            }
            3 => {
                let i = rng.below(rows[at].len() as u64 + 1) as usize;
                rows[at].insert(i, *rng.pick(ODD_BYTES));
            }
            4 | 5 => {
                // One field replaced by an odd spelling.
                let mut fields: Vec<Vec<u8>> =
                    rows[at].split(|&b| b == b',').map(<[u8]>::to_vec).collect();
                let f = rng.below(fields.len() as u64) as usize;
                fields[f] = rng.pick(ODD_FIELDS).as_bytes().to_vec();
                rows[at] = fields.join(&b","[..]);
            }
            6 => rows.insert(at, rng.pick(ODD_LINES).to_vec()),
            7 => rows[at].push(b'\r'),
            _ => {
                let other = rng.below(rows.len() as u64) as usize;
                rows.swap(at, other);
            }
        }
    }

    /// One seeded dump: a base, up to three mutations, a line ending per
    /// dump or per line, the final newline sometimes missing.
    fn hostile_dump(rng: &mut Rng) -> Vec<u8> {
        let mut rows = base_rows(rng);
        rows.insert(0, HEADER.as_bytes().to_vec());
        for _ in 0..rng.below(4) {
            mutate(rng, &mut rows);
        }
        let crlf = rng.below(4);
        let mut dump = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            dump.extend_from_slice(row);
            if i + 1 < rows.len() || !rng.chance(0.2) {
                if crlf == 0 || (crlf == 1 && rng.chance(0.5)) {
                    dump.push(b'\r');
                }
                dump.push(b'\n');
            }
        }
        dump
    }

    /// The first data row that is not blank and not four columns wide —
    /// where the two importers differ on purpose: its row number, width
    /// and byte offset. Found without either importer.
    fn first_wrong_width(dump: &[u8]) -> Option<(usize, usize, usize)> {
        let mut offset = 0;
        for (i, line) in dump.split(|&b| b == b'\n').enumerate() {
            let start = offset;
            offset += line.len() + 1;
            let Ok(text) = std::str::from_utf8(line) else {
                return None;
            };
            if i == 0 || text.trim().is_empty() {
                continue;
            }
            let width = text.split(',').count();
            if width != 4 {
                return Some((i + 1, width, start));
            }
        }
        None
    }

    fn import_all_ways(dump: &[u8]) -> Result<Map, (io::ErrorKind, String)> {
        let got = outcome(import(dump));
        for capacity in [1, 7] {
            let refilled = outcome(import(BufReader::with_capacity(capacity, dump)));
            assert_eq!(
                refilled,
                got,
                "capacity {capacity}: {:?}",
                dump.escape_ascii()
            );
        }
        got
    }

    #[test]
    fn import_agrees_with_the_line_at_a_time_importer_on_hostile_dumps() {
        let (mut accepted, mut rejected, mut wrong_width) = (0, 0, 0);
        for seed in 0..32 {
            let mut rng = Rng::new(0xC5_0000 + seed);
            for _ in 0..500 {
                let dump = hostile_dump(&mut rng);
                let shown = dump.escape_ascii();
                let got = import_all_ways(&dump);
                let Some((row, width, start)) = first_wrong_width(&dump) else {
                    assert_eq!(got, outcome(oracle_import(dump.as_slice())), "{shown}");
                    match got {
                        Ok(_) => accepted += 1,
                        Err(_) => rejected += 1,
                    }
                    continue;
                };
                // Up to the row of the wrong width the importers agree …
                let before = import_all_ways(&dump[..start]);
                assert_eq!(before, outcome(oracle_import(&dump[..start])), "{shown}");
                // … and the new one stops there, if not earlier.
                wrong_width += 1;
                match before {
                    Err(_) => assert_eq!(got, before, "{shown}"),
                    Ok(_) => {
                        let (kind, msg) = got.expect_err("a row of the wrong width");
                        assert_eq!(kind, io::ErrorKind::InvalidData);
                        let want = format!("row {row}: expected 4 columns, found {width}: ");
                        assert!(msg.starts_with(&want), "{msg:?} vs {want:?}: {shown}");
                    }
                }
            }
        }
        // The generator reaches every verdict, not just one of them.
        assert!(accepted > 2000, "{accepted} accepted");
        assert!(rejected > 2000, "{rejected} rejected");
        assert!(wrong_width > 500, "{wrong_width} of the wrong width");
    }

    #[test]
    fn import_keeps_series_apart_and_ties_in_file_order() {
        // Two series whose prefixes have the same length, interleaved row
        // by row, one with a backwards timestamp and a tie.
        let dump = "source,counter,timestamp_ns,value\n\
                    1,tx_bytes[0],30,1\n\
                    2,tx_bytes[0],10,2\n\
                    1,tx_bytes[0],10,4\n\
                    1,tx_bytes[0],10,3\n\
                    2,tx_bytes[0],20,5\n\
                    1,tx_bytes[0],30,6\n";
        let map = import(dump.as_bytes()).unwrap();
        assert_eq!(
            outcome(Ok(map.clone())),
            outcome(oracle_import(dump.as_bytes()))
        );
        let counter = CounterId::TxBytes(PortId(0));
        let one = &map[&SeriesKey {
            source: SourceId(1),
            counter,
        }];
        assert_eq!(
            (&one.ts, &one.vs),
            (&vec![10, 10, 30, 30], &vec![4, 3, 1, 6])
        );
        let two = &map[&SeriesKey {
            source: SourceId(2),
            counter,
        }];
        assert_eq!((&two.ts, &two.vs), (&vec![10, 20], &vec![2, 5]));
    }

    #[test]
    fn import_rejects_rows_that_are_not_four_columns() {
        for (row, width) in [
            ("5,tx_bytes[1],100", 3),
            ("5,tx_bytes[1],100,1,999", 5),
            ("5,tx_bytes[1],100,1,999,", 6),
            // A pre-rename label: its comma makes the row five wide.
            ("5,tx_size_hist[9,2],100,1", 5),
        ] {
            let dump = format!("{HEADER}\n5,tx_bytes[1],99,1\n\n{row}\n");
            let err = import(dump.as_bytes()).expect_err(row);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(
                err.to_string(),
                format!("row 4: expected 4 columns, found {width}: {row}")
            );
        }
        // What the old importer made of the five-column row.
        let silent = format!("{HEADER}\n5,tx_bytes[1],100,1,999\n");
        assert!(oracle_import(silent.as_bytes()).is_ok());
    }

    #[test]
    fn import_skips_one_byte_order_mark() {
        let plain = format!("{HEADER}\n1,tx_bytes[0],5,50\n1,buffer_peak,6,60\n");
        let want = SampleStore::import_csv(plain.as_bytes()).unwrap();
        for dump in [
            format!("\u{feff}{plain}"),
            format!("\u{feff}{}", plain.replace('\n', "\r\n")),
        ] {
            assert!(
                oracle_import(dump.as_bytes()).is_err(),
                "the parent refused it"
            );
            let got = SampleStore::import_csv(dump.as_bytes()).unwrap();
            assert_eq!(got.keys(), want.keys());
            for key in want.keys() {
                assert_eq!(
                    got.series(key.source, key.counter),
                    want.series(key.source, key.counter)
                );
            }
        }
        // One mark, at the start of the file, and nowhere else.
        for dump in [
            format!("\u{feff}\u{feff}{plain}"),
            format!("{HEADER}\n\u{feff}1,tx_bytes[0],5,50\n"),
        ] {
            assert!(import(dump.as_bytes()).is_err());
        }
    }

    // ---- I/O shapes ----

    /// `width` series of `depth` samples each.
    fn grid(width: u32, depth: u64) -> Map {
        let mut map = Map::new();
        for i in 0..width {
            let key = SeriesKey {
                source: SourceId(i / 4),
                counter: counter_kinds(PortId((i % 4) as u16), 0)[(i % 7) as usize],
            };
            let series = map.entry(key).or_default();
            for j in 0..depth {
                series.ts.push(1_000_000 + j * 25_000);
                series.vs.push(j * u64::from(i + 1) * 1500);
            }
        }
        map
    }

    #[test]
    fn import_from_a_tiny_buffer_equals_import_from_a_slice() {
        let map = grid(12, 40);
        let lf = exported(&map);
        let crlf = String::from_utf8(lf.clone()).unwrap().replace('\n', "\r\n");
        for dump in [lf.as_slice(), crlf.as_bytes(), &lf[..lf.len() - 1]] {
            assert_eq!(import_all_ways(dump), Ok(map.clone()));
        }
    }

    /// A writer that takes at most `per_call` bytes per `write`, fails once
    /// `fail_after` bytes are in, and counts its calls.
    struct Choppy {
        taken: Vec<u8>,
        per_call: usize,
        fail_after: usize,
        calls: usize,
    }

    impl Choppy {
        fn new(per_call: usize, fail_after: usize) -> Self {
            Choppy {
                taken: Vec::new(),
                per_call,
                fail_after,
                calls: 0,
            }
        }
    }

    impl Write for Choppy {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.taken.len() >= self.fail_after {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
            }
            let n = buf
                .len()
                .min(self.per_call)
                .min(self.fail_after - self.taken.len());
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn export_survives_short_writes_and_reports_failed_ones() {
        let map = grid(12, 600);
        let want = exported(&map);
        assert!(want.len() > 2 * STAGE_BYTES);
        let mut short = Choppy::new(5, usize::MAX);
        export(&map, &mut short).unwrap();
        assert!(short.taken == want, "short writes changed the bytes");
        for fail_after in [0, 10, STAGE_BYTES, STAGE_BYTES + 1, want.len() - 1] {
            let mut w = Choppy::new(usize::MAX, fail_after);
            let err = export(&map, &mut w).expect_err("the writer failed");
            assert_eq!(err.kind(), io::ErrorKind::StorageFull, "after {fail_after}");
            assert!(w.taken == want[..fail_after], "after {fail_after}");
        }
        let mut w = Choppy::new(usize::MAX, want.len());
        export(&map, &mut w).expect("exactly enough room");
    }

    #[test]
    fn export_of_a_million_rows_is_a_few_hundred_writes() {
        let map = grid(1024, 1024);
        let mut w = Choppy::new(usize::MAX, usize::MAX);
        export(&map, &mut w).unwrap();
        assert_eq!(
            w.taken.iter().filter(|&&b| b == b'\n').count(),
            1 + (1 << 20)
        );
        assert!(
            w.calls <= w.taken.len() / (32 * 1024) + 2,
            "{} writes for {} bytes",
            w.calls,
            w.taken.len()
        );
        assert_eq!(import(w.taken.as_slice()).unwrap(), map);
    }
}
