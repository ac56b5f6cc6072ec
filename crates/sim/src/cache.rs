//! Scenario-hash result cache: persisted per-cell report rows keyed by
//! a stable hash of everything that could change the row's bytes.
//!
//! A cache key is the SHA-256 of a canonical binary description of the
//! work: a code-version salt, the engine tag, the engine's
//! configuration (evaluator, wake policy, PV sizing, replication plan,
//! search space — whichever apply) and the cell's full parameter
//! fingerprint. Every `f64` contributes its exact bit pattern (8
//! little-endian bytes), every integer 8 bytes, every text its length
//! and bytes, and every variable-length list its count first. Each
//! engine writes its fields in a fixed order, and a field group present
//! for only some configurations always follows the value that selects
//! it, so distinct inputs never encode to the same bytes. Identical
//! inputs always map to the same key; perturbing any single axis value,
//! seed, policy or threshold changes the keys of exactly the affected
//! cells, so a dirty re-run recomputes only those.
//!
//! Each entry is one file under `root/<key[..2]>/<key>.entry`:
//!
//! ```text
//! corridor-result-cache v2\n
//! <csv_len> <json_len> <sha256 of csv, hex> <sha256 of json, hex>\n
//! <csv row bytes><json row bytes>
//! ```
//!
//! The payload carries the cell's row in *both* formats, so one
//! evaluation warms the CSV and JSON streams alike. Entries are written
//! to a temporary file and renamed into place (atomic on POSIX). A hit
//! checks that the two lengths add up to the payload exactly, then
//! hashes only the rendering it serves against that rendering's stored
//! SHA-256: every byte served is verified, and no byte that is not
//! served is hashed. A corrupt, truncated or foreign entry (entries of
//! the older `v1` layout included) is a miss, recomputed and rewritten,
//! never served.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use corridor_core::hash::sha256_hex;
use corridor_core::sink::RowFormat;

use crate::ScenarioCell;

/// Code-version salt baked into every key: bump the suffix whenever row
/// rendering or evaluation semantics change, so stale caches from older
/// builds can never be served.
const CACHE_SALT: &str = concat!("corridor-sim-", env!("CARGO_PKG_VERSION"), "-rows-v1");

const ENTRY_MAGIC: &str = "corridor-result-cache v2";

/// A directory of persisted result rows, shared by the streaming
/// engines.
///
/// # Examples
///
/// ```
/// use corridor_core::sink::{RowFormat, StringSink};
/// use corridor_sim::{ResultCache, ScenarioGrid, SweepEngine};
///
/// let dir = std::env::temp_dir().join("corridor-cache-doc");
/// let cache = ResultCache::open(&dir).unwrap();
/// let engine = SweepEngine::new().workers(1).pv_sizing(false);
/// let grid = ScenarioGrid::new().trains_per_hour(vec![4.0, 8.0]);
///
/// let mut cold = StringSink::new();
/// engine.stream_with(&grid, RowFormat::Csv, &mut cold, Some(&cache)).unwrap();
///
/// let mut warm = StringSink::new();
/// let summary = engine.stream_with(&grid, RowFormat::Csv, &mut warm, Some(&cache)).unwrap();
/// assert_eq!(warm.as_str(), cold.as_str());
/// assert_eq!(summary.cache_hits, 2); // the warm run computed nothing
/// # let _ = std::fs::remove_dir_all(&dir);
/// ```
#[derive(Debug)]
pub struct ResultCache {
    root: PathBuf,
    temp_seq: AtomicU64,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the error of creating the root directory.
    pub fn open<P: AsRef<Path>>(dir: P) -> io::Result<Self> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(ResultCache {
            root,
            temp_seq: AtomicU64::new(0),
        })
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.root.join(&key[..2]).join(format!("{key}.entry"))
    }

    /// Loads the `format` rendering stored under `key`, or `None` on a
    /// miss — a missing file, a foreign or truncated entry, or a
    /// rendering whose checksum no longer matches (silent corruption
    /// must recompute, never propagate).
    pub(crate) fn load(&self, key: &str, format: RowFormat) -> Option<String> {
        let bytes = fs::read(self.entry_path(key)).ok()?;
        let (magic, rest) = split_line(&bytes)?;
        if magic != ENTRY_MAGIC.as_bytes() {
            return None;
        }
        let (header, payload) = split_line(rest)?;
        let mut fields = core::str::from_utf8(header).ok()?.split(' ');
        let csv_len: usize = fields.next()?.parse().ok()?;
        let json_len: usize = fields.next()?.parse().ok()?;
        let (csv_sum, json_sum) = (fields.next()?, fields.next()?);
        if fields.next().is_some() || csv_len.checked_add(json_len)? != payload.len() {
            return None;
        }
        let (csv, json) = payload.split_at(csv_len);
        let (row, checksum) = match format {
            RowFormat::Csv => (csv, csv_sum),
            RowFormat::Json => (json, json_sum),
        };
        if sha256_hex(row) != checksum {
            return None;
        }
        String::from_utf8(row.to_vec()).ok()
    }

    /// Persists a cell's `csv` and `json` renderings under `key`,
    /// best-effort: the cache is an optimization, so a full disk or
    /// permission error must not abort a sweep — the next run simply
    /// misses again.
    pub(crate) fn store(&self, key: &str, csv: &str, json: &str) {
        let _ = self.try_store(key, csv, json);
    }

    fn try_store(&self, key: &str, csv: &str, json: &str) -> io::Result<()> {
        let path = self.entry_path(key);
        let dir = path
            .parent()
            .ok_or_else(|| io::Error::other("cache entry path has no parent directory"))?;
        fs::create_dir_all(dir)?;
        let header = format!(
            "{ENTRY_MAGIC}\n{} {} {} {}\n",
            csv.len(),
            json.len(),
            sha256_hex(csv.as_bytes()),
            sha256_hex(json.as_bytes())
        );
        let mut entry = Vec::with_capacity(header.len() + csv.len() + json.len());
        entry.extend_from_slice(header.as_bytes());
        entry.extend_from_slice(csv.as_bytes());
        entry.extend_from_slice(json.as_bytes());
        // temp + rename: readers only ever see complete entries
        let temp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.temp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&temp, &entry)?;
        fs::rename(&temp, &path)
    }
}

fn split_line(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let at = bytes.iter().position(|&b| b == b'\n')?;
    Some((&bytes[..at], &bytes[at + 1..]))
}

/// Builds canonical binary keys field by field and hashes them. Each
/// `f64` is its 8 little-endian bit bytes, each integer 8 bytes and
/// each text its length then its bytes; a caller writing a
/// variable-length list writes its count first with [`KeyBuilder::int`].
pub(crate) struct KeyBuilder {
    raw: Vec<u8>,
}

impl KeyBuilder {
    /// Starts a key for one engine's work unit.
    pub(crate) fn new(engine: &str) -> Self {
        let mut key = KeyBuilder {
            raw: Vec::with_capacity(256),
        };
        key.text(CACHE_SALT).text(engine);
        key
    }

    pub(crate) fn text(&mut self, value: &str) -> &mut Self {
        // length-prefix free-form text so adjacent fields cannot collide
        self.int(value.len() as u64);
        self.raw.extend_from_slice(value.as_bytes());
        self
    }

    pub(crate) fn int(&mut self, value: u64) -> &mut Self {
        self.raw.extend_from_slice(&value.to_le_bytes());
        self
    }

    pub(crate) fn f64(&mut self, value: f64) -> &mut Self {
        self.int(value.to_bits())
    }

    /// Appends the cell's full fingerprint: grid position, every axis
    /// value, the power models and the climate. Locations are
    /// fingerprinted by name — the built-in climates have distinct
    /// names, and custom ones must too for caching to be sound.
    pub(crate) fn cell(&mut self, cell: &ScenarioCell) -> &mut Self {
        let params = cell.params();
        let lp = params.lp_node();
        let hp = params.hp_mast();
        self.int(cell.index() as u64)
            .f64(cell.trains_per_hour())
            .f64(cell.service_window_h())
            .f64(cell.train_speed_kmh())
            .f64(cell.train_length_m())
            .f64(cell.lp_spacing_m())
            .f64(cell.conventional_isd_m())
            .text(cell.profile_name())
            .f64(lp.p_max().value())
            .f64(lp.delta_p())
            .f64(lp.p_sleep().value())
            .f64(hp.p_max().value())
            .f64(hp.delta_p())
            .f64(hp.p_sleep().value())
            .text(cell.location().name())
            .int(cell.nodes() as u64)
            .f64(cell.isd().value())
    }

    /// Hashes the canonical bytes into the entry key.
    pub(crate) fn finish(&self) -> String {
        sha256_hex(&self.raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corridor_core::ScenarioParams;
    use corridor_solar::climate;
    use corridor_units::Meters;
    use proptest::prelude::*;

    const CSV: &str = "1,2,3\n";
    const JSON: &str = "  {\"cell\": 1}";

    fn temp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!("corridor-cache-test-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        ResultCache::open(dir).unwrap()
    }

    fn loads(cache: &ResultCache, key: &str) -> (Option<String>, Option<String>) {
        (
            cache.load(key, RowFormat::Csv),
            cache.load(key, RowFormat::Json),
        )
    }

    fn stored(csv: &str, json: &str) -> (Option<String>, Option<String>) {
        (Some(csv.to_owned()), Some(json.to_owned()))
    }

    #[test]
    fn store_then_load_roundtrips() {
        let cache = temp_cache("roundtrip");
        let key = sha256_hex(b"some-key");
        assert_eq!(loads(&cache, &key), (None, None));
        cache.store(&key, CSV, JSON);
        assert_eq!(loads(&cache, &key), stored(CSV, JSON));
        let _ = fs::remove_dir_all(&cache.root);
    }

    #[test]
    fn corrupt_and_truncated_entries_miss() {
        let cache = temp_cache("corrupt");
        let key = sha256_hex(b"entry");
        cache.store(&key, CSV, JSON);
        let path = cache.entry_path(&key);

        // flip a JSON byte → the JSON checksum fails; the CSV rendering
        // is still intact and verified on its own
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(loads(&cache, &key), (Some(CSV.to_owned()), None));

        // truncate mid-header → structurally invalid
        fs::write(&path, &fs::read(&path).unwrap()[..30]).unwrap();
        assert_eq!(loads(&cache, &key), (None, None));

        // wrong magic → foreign file, never parsed further
        fs::write(&path, b"not-a-cache-entry\nwhatever\npayload").unwrap();
        assert_eq!(loads(&cache, &key), (None, None));

        // a fresh store heals the slot
        cache.store(&key, CSV, JSON);
        assert_eq!(loads(&cache, &key), stored(CSV, JSON));
        let _ = fs::remove_dir_all(&cache.root);
    }

    /// An entry in the `v1` layout: one checksum over both renderings
    /// joined by an ASCII unit separator.
    fn v1_entry(csv: &str, json: &str) -> Vec<u8> {
        let payload = format!("{csv}\x1f{json}");
        format!(
            "corridor-result-cache v1\n{}\n{payload}",
            sha256_hex(payload.as_bytes())
        )
        .into_bytes()
    }

    #[test]
    fn a_v1_entry_misses_and_the_next_store_overwrites_it() {
        let cache = temp_cache("v1");
        let key = sha256_hex(b"v1");
        cache.store(&key, CSV, JSON);
        let path = cache.entry_path(&key);
        fs::write(&path, v1_entry(CSV, JSON)).unwrap();
        assert_eq!(loads(&cache, &key), (None, None));

        cache.store(&key, CSV, JSON);
        assert!(fs::read(&path)
            .unwrap()
            .starts_with(b"corridor-result-cache v2\n"));
        assert_eq!(loads(&cache, &key), stored(CSV, JSON));
        let _ = fs::remove_dir_all(&cache.root);
    }

    #[test]
    fn payload_may_contain_newlines() {
        // optimizer CSV chunks are multi-line; the entry format must
        // treat everything after the header line as payload
        let cache = temp_cache("multiline");
        let key = sha256_hex(b"multiline");
        let (csv, json) = ("a,b\nc,d\ne,f\n", "  {\"x\": [1,\n2]}");
        cache.store(&key, csv, json);
        assert_eq!(loads(&cache, &key), stored(csv, json));
        let _ = fs::remove_dir_all(&cache.root);
    }

    #[test]
    fn key_builder_separates_fields_and_bits() {
        let base = KeyBuilder::new("sweep").finish();
        assert_ne!(base, KeyBuilder::new("mc").finish());
        // adjacent text fields cannot collide thanks to length prefixes
        let mut a = KeyBuilder::new("sweep");
        a.text("ab").text("c");
        let mut b = KeyBuilder::new("sweep");
        b.text("a").text("bc");
        assert_ne!(a.finish(), b.finish());
        // f64 keys are bit-exact: 0.1 + 0.2 != 0.3
        let mut x = KeyBuilder::new("sweep");
        x.f64(0.1 + 0.2);
        let mut y = KeyBuilder::new("sweep");
        y.f64(0.3);
        assert_ne!(x.finish(), y.finish());
    }

    #[test]
    fn cell_fingerprint_tracks_every_axis() {
        let cell = |isd: f64| {
            ScenarioCell::new(
                0,
                ScenarioParams::paper_default(),
                climate::berlin(),
                "paper".to_owned(),
                10,
                Meters::new(isd),
            )
        };
        let key_of = |c: &ScenarioCell| {
            let mut k = KeyBuilder::new("sweep");
            k.cell(c);
            k.finish()
        };
        assert_eq!(key_of(&cell(2650.0)), key_of(&cell(2650.0)));
        assert_ne!(key_of(&cell(2650.0)), key_of(&cell(2600.0)));
    }

    /// Text of printable ASCII and newlines, as rows are.
    fn row_text() -> impl Strategy<Value = String> {
        prop::collection::vec(0u8..=96, 0..48).prop_map(|codes| {
            codes
                .into_iter()
                .map(|c| if c == 96 { '\n' } else { char::from(b' ' + c) })
                .collect()
        })
    }

    /// The entry storing `csv` and `json`, damaged by mutation `kind`,
    /// which draws its positions and bytes from `noise`.
    fn mutate(entry: &[u8], csv: &str, json: &str, kind: u8, noise: &[u8]) -> Vec<u8> {
        let pick = |i: usize, len: usize| noise.get(i).map_or(0, |&b| usize::from(b)) % len.max(1);
        let sums = || (sha256_hex(csv.as_bytes()), sha256_hex(json.as_bytes()));
        let with_header = |header: String| {
            let mut out = format!("{ENTRY_MAGIC}\n{header}\n").into_bytes();
            out.extend_from_slice(csv.as_bytes());
            out.extend_from_slice(json.as_bytes());
            out
        };
        let payload_at = entry.len() - csv.len() - json.len();
        let mut out = entry.to_vec();
        match kind {
            // random bytes, bare or after a valid magic line
            0 => out = noise.to_vec(),
            1 => {
                out = format!("{ENTRY_MAGIC}\n").into_bytes();
                out.extend_from_slice(noise);
            }
            // truncation anywhere
            2 => out.truncate(pick(0, 256) * entry.len() / 256),
            // a flipped byte in the CSV rendering, the JSON rendering,
            // or anywhere
            3 | 4 => {
                let (start, len) = if kind == 3 {
                    (payload_at, csv.len())
                } else {
                    (payload_at + csv.len(), json.len())
                };
                if len > 0 {
                    out[start + pick(0, len)] ^= 1 << pick(1, 8);
                }
            }
            5 => out[pick(0, 256) * entry.len() / 256] ^= 1 << pick(1, 8),
            // header lengths near usize::MAX
            6 => {
                let (c, j) = sums();
                let near = usize::MAX - pick(0, 4);
                let lens = match pick(1, 3) {
                    0 => format!("{near} {}", json.len()),
                    1 => format!("{} {near}", csv.len()),
                    _ => format!("{near} {near}"),
                };
                out = with_header(format!("{lens} {c} {j}"));
            }
            // non-numeric lengths
            7 => {
                let (c, j) = sums();
                let word = ["x", "", "-1", "1e3", " ", "0x10"][pick(0, 6)];
                out = with_header(if pick(1, 2) == 0 {
                    format!("{word} {} {c} {j}", json.len())
                } else {
                    format!("{} {word} {c} {j}", csv.len())
                });
            }
            // a missing or an extra header field
            8 => {
                let (c, j) = sums();
                let mut fields = vec![csv.len().to_string(), json.len().to_string(), c, j];
                fields.remove(pick(0, 4));
                out = with_header(fields.join(" "));
            }
            9 => {
                let (c, j) = sums();
                out = with_header(format!("{} {} {c} {j} 0", csv.len(), json.len()));
            }
            // the v1 layout
            _ => out = v1_entry(csv, json),
        }
        out
    }

    proptest! {
        /// Whatever bytes sit at a key's entry path, `load` never panics
        /// and serves either nothing or exactly the rendering stored.
        #[test]
        fn hostile_entries_miss_or_serve_the_stored_rendering(
            csv in row_text(),
            json in row_text(),
            kind in 0u8..=10,
            noise in prop::collection::vec(0u8..=u8::MAX, 0..96),
        ) {
            let cache = temp_cache("hostile");
            let key = sha256_hex(b"hostile");
            cache.store(&key, &csv, &json);
            let path = cache.entry_path(&key);
            let entry = fs::read(&path).unwrap();
            fs::write(&path, mutate(&entry, &csv, &json, kind, &noise)).unwrap();

            let (got_csv, got_json) = loads(&cache, &key);
            prop_assert!(got_csv.is_none() || got_csv.as_deref() == Some(csv.as_str()));
            prop_assert!(got_json.is_none() || got_json.as_deref() == Some(json.as_str()));
            match kind {
                // a flipped rendering misses; the other is still served
                3 if !csv.is_empty() => prop_assert_eq!((got_csv, got_json), (None, Some(json))),
                4 if !json.is_empty() => prop_assert_eq!((got_csv, got_json), (Some(csv), None)),
                6..=10 => prop_assert_eq!((got_csv, got_json), (None, None)),
                _ => {}
            }
        }
    }
}
