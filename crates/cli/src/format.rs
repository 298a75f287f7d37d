//! Line-oriented text formats for observations and events.
//!
//! Deliberately trivial, dependency-free, and greppable:
//!
//! * **Observation lines**: `<secs> <block>` — e.g. `8632 192.0.2.0/24`
//! * **Event lines**: `<prefix> <start> <end> <confidence> <detector>` —
//!   e.g. `192.0.2.0/24 30010 37200 0.990 passive-bayes`
//! * **Interval lines**: `<start> <end>` — e.g. `43200 45180` (quarantined
//!   or otherwise excluded spans)
//!
//! Blank lines and lines starting with `#` are ignored on input, so
//! files can carry headers and comments.

use outage_types::{DetectorId, Interval, IntervalSet, Observation, OutageEvent, Prefix, UnixTime};
use std::fmt::Write as _;

/// Error with line number context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn skippable(line: &str) -> bool {
    let t = line.trim();
    t.is_empty() || t.starts_with('#')
}

/// Parse one observation line.
pub fn parse_observation(line: &str, lineno: usize) -> Result<Observation, ParseError> {
    let mut parts = line.split_whitespace();
    let (Some(t), Some(b), None) = (parts.next(), parts.next(), parts.next()) else {
        return Err(ParseError {
            line: lineno,
            message: format!("expected '<secs> <block>', got {line:?}"),
        });
    };
    let time: u64 = t.parse().map_err(|e| ParseError {
        line: lineno,
        message: format!("bad timestamp {t:?}: {e}"),
    })?;
    let block: Prefix = b.parse().map_err(|e| ParseError {
        line: lineno,
        message: format!("bad block {b:?}: {e}"),
    })?;
    Ok(Observation::new(UnixTime(time), block))
}

/// Parse a whole observation document (skipping comments/blanks).
pub fn parse_observations(input: &str) -> Result<Vec<Observation>, ParseError> {
    input
        .lines()
        .enumerate()
        .filter(|(_, l)| !skippable(l))
        .map(|(i, l)| parse_observation(l, i + 1))
        .collect()
}

/// Render a whole observation document.
pub fn render_observations(obs: &[Observation]) -> String {
    let mut out = String::with_capacity(obs.len() * 24);
    out.push_str("# <secs> <block>\n");
    for o in obs {
        let _ = writeln!(out, "{} {}", o.time.secs(), o.block);
    }
    out
}

/// Render one event line.
pub fn event_line(ev: &OutageEvent) -> String {
    format!(
        "{} {} {} {:.3} {}",
        ev.prefix,
        ev.interval.start.secs(),
        ev.interval.end.secs(),
        ev.confidence,
        ev.detector
    )
}

fn detector_from_str(s: &str) -> Option<DetectorId> {
    Some(match s {
        "passive-bayes" => DetectorId::PassiveBayes,
        "trinocular" => DetectorId::Trinocular,
        "chocolatine" => DetectorId::Chocolatine,
        "ripe-atlas" => DetectorId::RipeAtlas,
        "ground-truth" => DetectorId::GroundTruth,
        _ => return None,
    })
}

/// Parse one event line.
pub fn parse_event(line: &str, lineno: usize) -> Result<OutageEvent, ParseError> {
    let parts: Vec<&str> = line.split_whitespace().collect();
    if parts.len() != 5 {
        return Err(ParseError {
            line: lineno,
            message: format!(
                "expected '<prefix> <start> <end> <confidence> <detector>', got {line:?}"
            ),
        });
    }
    let err = |message: String| ParseError {
        line: lineno,
        message,
    };
    let prefix: Prefix = parts[0]
        .parse()
        .map_err(|e| err(format!("bad prefix: {e}")))?;
    let start: u64 = parts[1]
        .parse()
        .map_err(|e| err(format!("bad start: {e}")))?;
    let end: u64 = parts[2].parse().map_err(|e| err(format!("bad end: {e}")))?;
    if end < start {
        return Err(err(format!("end {end} before start {start}")));
    }
    let confidence: f64 = parts[3]
        .parse()
        .map_err(|e| err(format!("bad confidence: {e}")))?;
    if !(0.0..=1.0).contains(&confidence) {
        return Err(err(format!("confidence {confidence} outside [0,1]")));
    }
    let detector = detector_from_str(parts[4])
        .ok_or_else(|| err(format!("unknown detector {:?}", parts[4])))?;
    Ok(OutageEvent {
        prefix,
        interval: Interval::from_secs(start, end),
        confidence,
        detector,
    })
}

/// Parse a whole event document.
pub fn parse_events(input: &str) -> Result<Vec<OutageEvent>, ParseError> {
    input
        .lines()
        .enumerate()
        .filter(|(_, l)| !skippable(l))
        .map(|(i, l)| parse_event(l, i + 1))
        .collect()
}

/// Render a whole event document.
pub fn render_events(events: &[OutageEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 48);
    out.push_str("# <prefix> <start> <end> <confidence> <detector>\n");
    for ev in events {
        let _ = writeln!(out, "{}", event_line(ev));
    }
    out
}

/// Render an interval set, one `<start> <end>` line per interval.
pub fn render_intervals(set: &IntervalSet) -> String {
    let mut out = String::from("# <start> <end>\n");
    for iv in set.iter() {
        let _ = writeln!(out, "{} {}", iv.start.secs(), iv.end.secs());
    }
    out
}

/// Parse one interval line.
pub fn parse_interval(line: &str, lineno: usize) -> Result<Interval, ParseError> {
    let mut parts = line.split_whitespace();
    let (Some(s), Some(e), None) = (parts.next(), parts.next(), parts.next()) else {
        return Err(ParseError {
            line: lineno,
            message: format!("expected '<start> <end>', got {line:?}"),
        });
    };
    let err = |message: String| ParseError {
        line: lineno,
        message,
    };
    let start: u64 = s
        .parse()
        .map_err(|pe| err(format!("bad start {s:?}: {pe}")))?;
    let end: u64 = e
        .parse()
        .map_err(|pe| err(format!("bad end {e:?}: {pe}")))?;
    if end < start {
        return Err(err(format!("end {end} before start {start}")));
    }
    Ok(Interval::from_secs(start, end))
}

/// Parse a whole interval document into a (merged) set.
pub fn parse_intervals(input: &str) -> Result<IntervalSet, ParseError> {
    let mut set = IntervalSet::new();
    for (i, l) in input.lines().enumerate() {
        if skippable(l) {
            continue;
        }
        set.insert(parse_interval(l, i + 1)?);
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_roundtrip() {
        let obs = vec![
            Observation::new(UnixTime(0), "10.0.0.0/24".parse().unwrap()),
            Observation::new(UnixTime(86_399), "2001:db8::/48".parse().unwrap()),
        ];
        let doc = render_observations(&obs);
        assert_eq!(parse_observations(&doc).unwrap(), obs);
    }

    #[test]
    fn event_roundtrip() {
        let events = vec![OutageEvent {
            prefix: "192.0.2.0/24".parse().unwrap(),
            interval: Interval::from_secs(30_010, 37_200),
            confidence: 0.99,
            detector: DetectorId::PassiveBayes,
        }];
        let doc = render_events(&events);
        let back = parse_events(&doc).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].prefix, events[0].prefix);
        assert_eq!(back[0].interval, events[0].interval);
        assert_eq!(back[0].detector, events[0].detector);
        assert!((back[0].confidence - 0.99).abs() < 1e-9);
    }

    #[test]
    fn interval_roundtrip_merges_overlaps() {
        let doc = "# spans\n100 200\n\n150 300\n400 500\n";
        let set = parse_intervals(doc).unwrap();
        assert_eq!(set.intervals().len(), 2);
        assert_eq!(set.total(), 300);
        let rendered = render_intervals(&set);
        assert_eq!(parse_intervals(&rendered).unwrap(), set);
    }

    #[test]
    fn bad_interval_lines_rejected() {
        assert!(parse_interval("5 3", 1).is_err()); // end < start
        assert!(parse_interval("1 2 3", 1).is_err()); // arity
        assert!(parse_interval("x 2", 1).is_err()); // not a number
        let err = parse_intervals("1 2\nbroken\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let doc = "# header\n\n100 10.0.0.0/24\n   \n200 10.0.1.0/24\n";
        let obs = parse_observations(doc).unwrap();
        assert_eq!(obs.len(), 2);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let doc = "100 10.0.0.0/24\nbogus line here\n";
        let err = parse_observations(doc).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn bad_event_fields_rejected() {
        assert!(parse_event("10.0.0.0/24 5 3 0.9 trinocular", 1).is_err()); // end<start
        assert!(parse_event("10.0.0.0/24 1 2 1.5 trinocular", 1).is_err()); // conf>1
        assert!(parse_event("10.0.0.0/24 1 2 0.5 martian", 1).is_err()); // detector
        assert!(parse_event("10.0.0.0/24 1 2 0.5", 1).is_err()); // arity
        assert!(parse_event("10.0.0.0 1 2 0.5 trinocular", 1).is_err()); // prefix
    }

    #[test]
    fn every_detector_id_roundtrips() {
        for d in [
            DetectorId::PassiveBayes,
            DetectorId::Trinocular,
            DetectorId::Chocolatine,
            DetectorId::RipeAtlas,
            DetectorId::GroundTruth,
        ] {
            assert_eq!(detector_from_str(&d.to_string()), Some(d));
        }
    }

    /// Every truncation and every single-bit flip of `doc` that is still
    /// UTF-8 goes to `parse`; returns how many were skipped because they
    /// are not (cut inside a character, or flipped into a bad byte).
    fn each_mutation(doc: &str, mut parse: impl FnMut(&str)) -> usize {
        let bytes = doc.as_bytes();
        let mut skipped = 0;
        let mut feed = |m: &[u8]| match std::str::from_utf8(m) {
            Ok(text) => parse(text),
            Err(_) => skipped += 1,
        };
        for cut in 0..=bytes.len() {
            feed(&bytes[..cut]);
        }
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = bytes.to_vec();
                m[byte] ^= 1 << bit;
                feed(&m);
            }
        }
        skipped
    }

    /// Run `parse` over every mutation of `doc`: an error names a line of
    /// the input, both outcomes occur, and the skipped count is bit 7 of
    /// each byte plus the cuts and flips inside the one `\u{b1}`.
    fn total_over_mutations<T>(
        doc: &str,
        parse: impl Fn(&str) -> Result<T, ParseError>,
        mut accepted: impl FnMut(&str, T),
    ) {
        let (mut ok, mut err) = (0, 0);
        let skipped = each_mutation(doc, |text| match parse(text) {
            Ok(v) => {
                accepted(text, v);
                ok += 1;
            }
            Err(e) => {
                assert!(
                    e.line >= 1 && e.line <= text.lines().count(),
                    "{e} in {text:?}"
                );
                err += 1;
            }
        });
        assert!(ok > 0 && err > 0, "ok {ok}, err {err}");
        assert!(
            skipped >= doc.len() - 2 && skipped < doc.len() + 16,
            "skipped {skipped}"
        );
        // Random multi-byte damage, still never a panic.
        outage_types::rng::cases(300, doc.len() as u64, |rng| {
            let mut m = doc.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..=6usize) {
                let i = rng.gen_range(0..m.len());
                m[i] = b"0123456789 ./:#\nabcdef"[rng.gen_range(0..22usize)];
            }
            let _ = parse(&String::from_utf8_lossy(&m));
        });
    }

    #[test]
    fn observation_parser_is_total() {
        let doc =
            "# <secs> <block> \u{b1}\n8632 192.0.2.0/24\n86399 2001:db8::/48\n\n0 10.0.0.0/8\n";
        total_over_mutations(doc, parse_observations, |text, obs| {
            let again = parse_observations(&render_observations(&obs));
            assert_eq!(again.as_ref(), Ok(&obs), "{text:?}");
        });
    }

    #[test]
    fn event_parser_is_total() {
        let doc = "# events \u{b1}\n192.0.2.0/24 30010 37200 0.990 passive-bayes\n\
                   2001:db8::/48 100 200 1.000 trinocular\n";
        total_over_mutations(doc, parse_events, |text, events| {
            let again = parse_events(&render_events(&events)).expect("rendered events parse");
            assert_eq!(again.len(), events.len(), "{text:?}");
            for (a, b) in again.iter().zip(&events) {
                assert_eq!(
                    (a.prefix, a.interval, a.detector),
                    (b.prefix, b.interval, b.detector)
                );
                assert!((a.confidence - b.confidence).abs() <= 5e-4, "{text:?}");
            }
        });
    }

    #[test]
    fn interval_parser_is_total() {
        let doc = "# spans \u{b1}\n100 200\n\n150 300\n43200 45180\n";
        total_over_mutations(doc, parse_intervals, |text, set| {
            let again = parse_intervals(&render_intervals(&set));
            assert_eq!(again.as_ref(), Ok(&set), "{text:?}");
        });
    }
}
