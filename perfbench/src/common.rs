//! Shared plumbing: arguments, the result record, run directories,
//! seeded generation, output digests and small helpers.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Print the digest table of the current build instead of running.
    pub write_digests: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            write_digests: false,
        };
        while let Some(flag) = it.next() {
            if flag == "--write-digests" {
                a.write_digests = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => a.workload = value.clone(),
                "--seed" => a.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    a.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        if !a.write_digests && a.workload.is_empty() {
            return Err("--workload is required".into());
        }
        if a.seconds.is_nan() || a.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(a)
    }
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (units for `campaign`, requests otherwise).
    pub attempted: u64,
    /// Operations that failed, were refused or returned wrong bytes.
    pub failed: u64,
    /// Output-check failures, one line each.
    pub mismatches: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Free-form notes printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// A metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records one failed output check.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    /// `true` when every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }
}

/// A fresh, unique directory under `.perfbench/` of the working
/// directory, removed with everything in it when dropped. Paths are
/// relative so socket paths stay short wherever the checkout lives.
#[derive(Debug)]
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `.perfbench/<tag>-<pid>-<nanos>`.
    pub fn new(tag: &str) -> Result<RunDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let dir = PathBuf::from(".perfbench").join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            nanos % 1_000_000_000_000
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A small seeded generator (splitmix64).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Worker threads and connections the load may use: at most the
/// machine's CPUs, and 2.
pub fn load_width() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Refuses a generator wider than the machine.
pub fn check_load_width(threads: usize, connections: usize) -> Result<(), String> {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if threads > cpus || connections > cpus {
        return Err(format!(
            "load generator would use {threads} threads / {connections} connections on {cpus} CPUs"
        ));
    }
    Ok(())
}

/// FNV-1a 64 of the bytes: the digest the data file pins.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The expected digests, `label -> (digest, bytes)`, from
/// `perfbench/data/digests.txt`.
pub fn expected() -> BTreeMap<String, (String, usize)> {
    parse_digests(include_str!("../data/digests.txt"))
}

fn parse_digests(text: &str) -> BTreeMap<String, (String, usize)> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let label = f.next()?.to_string();
            let digest = f.next()?.to_string();
            let bytes = f.next()?.parse().ok()?;
            Some((label, (digest, bytes)))
        })
        .collect()
}

/// Checks `text` against the pinned digest of `label`; a mismatch is
/// returned as a one-line description.
pub fn check_digest(
    table: &BTreeMap<String, (String, usize)>,
    label: &str,
    text: &str,
) -> Result<(), String> {
    let got = digest(text);
    match table.get(label) {
        Some((want, _)) if *want == got => Ok(()),
        Some((want, bytes)) => Err(format!(
            "{label}: digest {got} ({} bytes), expected {want} ({bytes} bytes)",
            text.len()
        )),
        None => Err(format!("{label}: no expected digest")),
    }
}

/// Computes every pinned output directly through `fires-jobs` and
/// renders the data file.
pub fn write_digests() -> Result<String, String> {
    let dir = RunDir::new("digests")?;
    let mut out = String::from(
        "# label digest(fnv1a64) bytes — canonical report texts pinned by the benchmark.\n\
         # Regenerate: cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- --write-digests\n",
    );
    let text = crate::campaign::direct_text(dir.path())?;
    out.push_str(&format!(
        "{} {} {}\n",
        crate::campaign::LABEL,
        digest(&text),
        text.len()
    ));
    for key in crate::serve::all_keys() {
        let t = std::time::Instant::now();
        let text = key.direct_text(dir.path())?;
        eprintln!("{} {:.1} ms", key.label(), ms(t.elapsed()));
        out.push_str(&format!(
            "{} {} {}\n",
            key.label(),
            digest(&text),
            text.len()
        ));
    }
    Ok(out)
}

/// Peak resident set of this process, MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A JSON string literal (metric names and units are plain ASCII).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A JSON number with every digit Rust's shortest round-trip form has.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_check_catches_a_wrong_expectation() {
        let table = parse_digests("a 0000000000000000 3\nb af63bd4c8601b7df 1\n");
        assert_eq!(digest("a"), "af63dc4c8601ec8c");
        assert!(check_digest(&table, "a", "abc").is_err());
        assert!(check_digest(&table, "b", "a").is_err());
        assert!(check_digest(&table, "missing", "a").is_err());
        let good = parse_digests(&format!("x {} 1\n", digest("x")));
        assert!(check_digest(&good, "x", "x").is_ok());
    }

    #[test]
    fn pinned_table_parses() {
        let t = expected();
        assert!(t.contains_key(crate::campaign::LABEL));
        for key in crate::serve::all_keys() {
            assert!(t.contains_key(&key.label()), "{}", key.label());
        }
    }

    #[test]
    fn rng_is_seeded() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(8, 1);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..4).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(1, 2).shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn args_parse() {
        let a = Args::parse(
            [
                "--workload",
                "campaign",
                "--seed",
                "3",
                "--seconds",
                "5",
                "--trace",
                "1",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("campaign", 3, 5.0, true)
        );
        assert!(Args::parse(
            ["--trace", "2", "--workload", "x"]
                .iter()
                .map(|s| s.to_string())
        )
        .is_err());
        assert!(Args::parse(["--seed"].iter().map(|s| s.to_string())).is_err());
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(1.2034), "1.2034");
        assert_eq!(json_num(2.0), "2.0");
        assert_eq!(json_num(f64::NAN), "0.0");
    }
}
