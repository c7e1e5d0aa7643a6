//! Statistics and reporting shared by every subcommand: the one
//! percentile rule, windowed medians, the one JSON writer (and the small
//! reader the orchestrating subcommands need), and host metadata.

use std::fmt::Write as _;
use std::time::{SystemTime, UNIX_EPOCH};

// ---------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------

/// Percentiles a tail may be reported at, ascending.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: f64 = 10.0;

/// Value at percentile `p` (0–100) of an ascending slice, interpolating
/// linearly between the two neighbouring order statistics so that integer
/// microsecond samples still yield a full-precision reading.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it (the median when even that is unsupported).
pub fn supported_tail(n: usize) -> f64 {
    LADDER
        .iter()
        .copied()
        // The tolerance absorbs binary rounding of 99.9 and 99.99.
        .filter(|p| n as f64 * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-6)
        .fold(LADDER[0], f64::max)
}

/// A timing distribution reported by the one rule every metric follows:
/// the median, plus the highest percentile the sample count supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarize raw samples (any order).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Summary { sorted: samples }
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The median (NaN when empty).
    pub fn p50(&self) -> f64 {
        percentile(&self.sorted, 50.0)
    }

    /// The percentile actually reported when `wanted` is asked for:
    /// `wanted` itself if the sample supports it, else the highest
    /// supported one below it.
    pub fn tail_pct(&self, wanted: f64) -> f64 {
        wanted.min(supported_tail(self.n()))
    }

    /// The value at [`tail_pct`](Self::tail_pct) (NaN when empty).
    pub fn tail(&self, wanted: f64) -> f64 {
        percentile(&self.sorted, self.tail_pct(wanted))
    }
}

/// Median of a slice (NaN when empty); the input order is irrelevant.
pub fn median(values: &[f64]) -> f64 {
    Summary::new(values.to_vec()).p50()
}

/// Split `(time_us, value)` samples into consecutive windows of
/// `window_us` starting at the first sample's time and return each
/// non-empty window's median, in time order. Used to tell a backlog that
/// grows across a run from one that merely fluctuates.
pub fn windowed_medians(samples: &[(u64, f64)], window_us: u64) -> Vec<f64> {
    assert!(window_us > 0, "window must be positive");
    let Some(&(t0, _)) = samples.first() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut current: Vec<f64> = Vec::new();
    let mut index = 0u64;
    for &(t, v) in samples {
        let w = t.saturating_sub(t0) / window_us;
        if w != index && !current.is_empty() {
            out.push(median(&current));
            current.clear();
        }
        index = w;
        current.push(v);
    }
    if !current.is_empty() {
        out.push(median(&current));
    }
    out
}

/// Relative difference `|a − b| ÷ min(|a|, |b|)`, the figure `repeat`
/// holds against a metric's bound (0 when both are 0).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if base == 0.0 {
        if a == b {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (a - b).abs() / base
    }
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/// A JSON value. Objects keep insertion order so reports read top-down.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A whole number, written without a fraction.
    Int(i64),
    /// A measured number, written with every digit `f64` holds.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value of `Int` or `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements.
    #[cfg(test)]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object members.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Compact one-line encoding.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented multi-line encoding (for files meant to be read).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(step) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', step * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            // JSON has no NaN/inf; a metric that could not be computed
            // reads as null rather than as a made-up number.
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_json_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { src: text.as_bytes(), pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.src.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.src[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.src.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at byte {}", self.pos));
                    }
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(pairs));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' or '}}' at byte {}", self.pos));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' or ']' at byte {}", self.pos));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at byte {}", self.pos));
        }
        let mut out = Vec::new();
        loop {
            let b = *self.src.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let e = *self.src.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).map_err(|_| "string is not UTF-8".to_string())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .src
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).map_err(|e| e.to_string())?;
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number {text:?} at {start}"))
    }
}

// ---------------------------------------------------------------------
// Host metadata
// ---------------------------------------------------------------------

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Seconds since the epoch as `YYYY-MM-DDThh:mm:ssZ` (civil-from-days,
/// Howard Hinnant's algorithm; std has no calendar).
pub fn rfc3339(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z", rem / 3600, rem % 3600 / 60, rem % 60)
}

/// Host metadata attached to every result: a number without the machine
/// that produced it cannot be compared with anything.
pub fn host_metadata(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let now = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    Json::obj([
        ("nproc", Json::Int(nproc as i64)),
        ("rustc", Json::str(command_line("rustc", &["--version"]).unwrap_or("unknown".into()))),
        ("kernel", Json::str(kernel)),
        // The driver's checkout is not a git repository; "unknown" there.
        (
            "git_sha",
            Json::str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or("unknown".into())),
        ),
        ("timestamp", Json::str(rfc3339(now))),
        ("seed", Json::Int(seed as i64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 62.5), 3.5);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // n × (1 − p) ≥ 10 decides: 19 → none but the median, 100 → p90,
        // 1000 → p99, 9 999 → still p99, 10 000 → p99.9, 100 000 → p99.99.
        for (n, want) in [
            (0, 50.0),
            (19, 50.0),
            (20, 50.0),
            (99, 50.0),
            (100, 90.0),
            (999, 90.0),
            (1_000, 99.0),
            (9_999, 99.0),
            (10_000, 99.9),
            (100_000, 99.99),
        ] {
            assert_eq!(supported_tail(n), want, "n = {n}");
        }
    }

    #[test]
    fn summary_reports_the_wanted_percentile_only_when_supported() {
        let s = Summary::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(s.n(), 1000);
        assert_eq!(s.p50(), 500.5);
        assert_eq!(s.tail_pct(99.0), 99.0);
        assert!((s.tail(99.0) - 990.01).abs() < 1e-9);
        // 150 samples support p90, not p99: the p99 metric degrades to
        // p90 and says so through tail_pct.
        let small = Summary::new((1..=150).map(f64::from).collect());
        assert_eq!(small.tail_pct(99.0), 90.0);
        assert!((small.tail(99.0) - 135.1).abs() < 1e-9);
    }

    #[test]
    fn windowed_medians_follow_time_windows() {
        let samples: Vec<(u64, f64)> =
            vec![(100, 1.0), (150, 3.0), (190, 2.0), (250, 10.0), (420, 7.0), (430, 9.0)];
        // Windows of 100 µs from t = 100: [1,3,2] [10] (empty) [7,9].
        assert_eq!(windowed_medians(&samples, 100), vec![2.0, 10.0, 8.0]);
        assert!(windowed_medians(&[], 100).is_empty());
    }

    #[test]
    fn rel_diff_is_symmetric_and_relative_to_the_smaller() {
        assert_eq!(rel_diff(100.0, 110.0), 0.1);
        assert_eq!(rel_diff(110.0, 100.0), 0.1);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert!(rel_diff(0.0, 1.0).is_infinite());
    }

    #[test]
    fn json_roundtrips_and_keeps_order() {
        let v = Json::obj([
            ("b", Json::Int(-3)),
            ("a", Json::Num(1.25)),
            ("s", Json::str("x\"y\n")),
            ("l", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("e", Json::obj::<String>([])),
        ]);
        let line = v.to_line();
        assert_eq!(line, r#"{"b":-3,"a":1.25,"s":"x\"y\n","l":[true,null],"e":{}}"#);
        assert_eq!(Json::parse(&line).unwrap(), v);
        assert_eq!(Json::parse(&v.to_pretty()).unwrap(), v);
        assert_eq!(Json::Num(f64::NAN).to_line(), "null");
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn rfc3339_matches_known_instants() {
        assert_eq!(rfc3339(0), "1970-01-01T00:00:00Z");
        assert_eq!(rfc3339(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(rfc3339(1_790_000_000), "2026-09-21T14:13:20Z");
    }

    #[test]
    fn host_metadata_has_every_field() {
        let m = host_metadata(7);
        for key in ["nproc", "rustc", "kernel", "git_sha", "timestamp", "seed"] {
            assert!(m.get(key).is_some(), "missing {key}");
        }
        assert_eq!(m.get("seed").and_then(Json::as_f64), Some(7.0));
    }
}
