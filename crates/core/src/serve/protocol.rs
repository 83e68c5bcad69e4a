//! The serve wire protocol: one JSON request object per frame, one JSON
//! response object per frame.
//!
//! The compat `serde_derive` requires every named field to be present on
//! deserialize (there is no `#[serde(default)]`), so both sides always
//! send the full struct and use `null` for fields a command does not
//! need. [`Request`] constructors fill the boilerplate.
//!
//! Commands:
//!
//! | `cmd`      | inputs                                              | reply payload |
//! |------------|-----------------------------------------------------|---------------|
//! | `ping`     | —                                                   | `ok`, `version` |
//! | `version`  | —                                                   | current snapshot version + label |
//! | `predict`  | `workload`, `fp_active`, `dram_active`, `exec_time` | full [`PredictedProfile`] |
//! | `select`   | predict inputs + `objective`, optional `threshold`  | profile + [`Selection`] |
//! | `stats`    | —                                                   | cache counters + [`ServerStatsReply`] (uptime, build, windowed rates, SLO/quality state) |
//! | `scrape`   | —                                                   | Prometheus text exposition in `text` |
//! | `reload`   | `path` (models JSON)                                | newly published version |
//! | `shutdown` | —                                                   | `ok`, then the server drains and exits |
//!
//! The full `stats` reply schema is pinned by a snapshot test below —
//! dashboards (`dvfs top`) and scripts parse it, so adding a field is
//! fine but renaming or removing one must be deliberate.

use crate::objective::Selection;
use crate::predictor::PredictedProfile;
use serde::{Deserialize, Serialize};

mod shortest;

/// One request frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Command discriminator (see the module table).
    pub cmd: String,
    /// Workload name (predict/select).
    pub workload: Option<String>,
    /// Combined FP pipe activity in `[0, 1]` from the default-clock
    /// profiling run (predict/select).
    pub fp_active: Option<f64>,
    /// DRAM activity in `[0, 1]` from the default-clock run
    /// (predict/select).
    pub dram_active: Option<f64>,
    /// Execution time in seconds at the default clock (predict/select).
    pub exec_time: Option<f64>,
    /// Objective name: `edp`, `ed2p`, `energy`, `time` (select).
    pub objective: Option<String>,
    /// Performance-degradation threshold, fractional (select).
    pub threshold: Option<f64>,
    /// Models JSON path (reload).
    pub path: Option<String>,
}

impl Request {
    fn blank(cmd: &str) -> Self {
        Self {
            cmd: cmd.to_string(),
            workload: None,
            fp_active: None,
            dram_active: None,
            exec_time: None,
            objective: None,
            threshold: None,
            path: None,
        }
    }

    /// A `ping` request.
    pub fn ping() -> Self {
        Self::blank("ping")
    }

    /// A `version` request.
    pub fn version() -> Self {
        Self::blank("version")
    }

    /// A `stats` request.
    pub fn stats() -> Self {
        Self::blank("stats")
    }

    /// A `scrape` request (Prometheus text exposition over the
    /// protocol port — the HTTP telemetry port serves the same body).
    pub fn scrape() -> Self {
        Self::blank("scrape")
    }

    /// A `shutdown` request.
    pub fn shutdown() -> Self {
        Self::blank("shutdown")
    }

    /// A `reload` request for the models JSON at `path`.
    pub fn reload(path: &str) -> Self {
        let mut r = Self::blank("reload");
        r.path = Some(path.to_string());
        r
    }

    /// A `predict` request from a default-clock profiling run.
    pub fn predict(workload: &str, fp_active: f64, dram_active: f64, exec_time: f64) -> Self {
        let mut r = Self::blank("predict");
        r.workload = Some(workload.to_string());
        r.fp_active = Some(fp_active);
        r.dram_active = Some(dram_active);
        r.exec_time = Some(exec_time);
        r
    }

    /// A `select` request: predict plus frequency selection.
    pub fn select(
        workload: &str,
        fp_active: f64,
        dram_active: f64,
        exec_time: f64,
        objective: &str,
        threshold: Option<f64>,
    ) -> Self {
        let mut r = Self::predict(workload, fp_active, dram_active, exec_time);
        r.cmd = "select".to_string();
        r.objective = Some(objective.to_string());
        r.threshold = threshold;
        r
    }
}

/// Cache counters on the wire (`stats` reply). Mirrors
/// [`crate::cache::CacheStats`] plus occupancy, as plain fields — the
/// internal struct stays wire-independent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheStatsReply {
    /// Total lookups.
    pub lookups: f64,
    /// Lookups served from cache.
    pub hits: f64,
    /// Lookups that computed and inserted.
    pub misses: f64,
    /// Capacity evictions.
    pub evictions: f64,
    /// Hit fraction (0.0 on an idle cache, never NaN).
    pub hit_rate: f64,
    /// Resident entries across all shards.
    pub resident: f64,
    /// Number of independent shards.
    pub shards: f64,
}

/// One objective's burn-rate state on the wire (`stats` reply).
/// Mirrors [`obs::slo::SloStatus`] with wire-friendly field types.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloReply {
    /// Objective name (`latency_p99`, `availability`, …).
    pub name: String,
    /// Required good fraction, e.g. 0.99.
    pub target: f64,
    /// Burn rate over the fast window (0 with no data).
    pub burn_fast: f64,
    /// Burn rate over the slow window (0 with no data).
    pub burn_slow: f64,
    /// Whether both windows currently exceed the burn threshold.
    pub firing: bool,
    /// Rising-edge alerts since start.
    pub alerts: f64,
}

/// One model-quality monitor's state on the wire (`stats` reply).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityReply {
    /// Monitored model name (`power`, `time`).
    pub model: String,
    /// Rolling MAPE over the monitor window, percent.
    pub mape: f64,
    /// Worst single APE in the window, percent.
    pub max_ape: f64,
    /// Ground-truth pairs observed so far.
    pub samples: f64,
    /// Alert-band crossings so far.
    pub alerts: f64,
    /// Whether the rolling MAPE currently sits above the band.
    pub above_band: bool,
}

/// Energy-accounting state on the wire (`stats` reply): the ledger's
/// running totals plus the journal's durability counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyReply {
    /// Predicted joules saved vs the max-clock baseline since start.
    pub predicted_joules_saved: f64,
    /// `select` decisions booked since start.
    pub decisions: f64,
    /// Predicted watts saved over the rolling window.
    pub window_watts_saved: f64,
    /// Decision records made durable since start (0 with no journal).
    pub journal_appended: f64,
    /// Decision records dropped by full rings since start.
    pub journal_dropped: f64,
}

/// Server-level state on the wire (`stats` reply): identity, uptime,
/// and rolling-window rates from the observability plane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStatsReply {
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// Crate version baked in at build time.
    pub build_version: String,
    /// Git revision baked in at build time (`unknown` outside CI).
    pub build_git: String,
    /// Precision the live snapshot actually serves (`f64`/`f32`/`bf16`)
    /// — post-veto, so it can differ from `--precision`.
    pub precision: String,
    /// The rolling window the rates below cover, seconds (0 until the
    /// sampler has two ticks).
    pub window_s: f64,
    /// Requests per second over the window.
    pub qps: f64,
    /// Median request latency over the window, microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency over the window, microseconds.
    pub p99_us: f64,
    /// Cache hit fraction over the window (0 on no traffic).
    pub hit_rate: f64,
    /// Per-objective burn-rate state.
    pub slo: Vec<SloReply>,
    /// Per-model drift-monitor state (empty unless the server observes
    /// ground truth).
    pub quality: Vec<QualityReply>,
    /// Energy-savings accounting and journal durability counters.
    pub energy: EnergyReply,
}

/// One response frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// True unless the request failed; then `error` says why.
    pub ok: bool,
    /// Human-readable failure reason (`ok == false` only).
    pub error: Option<String>,
    /// Version of the [`crate::snapshot::ModelSnapshot`] that served the
    /// request (0 for replies that never touched the models, e.g. a
    /// protocol error).
    pub version: f64,
    /// Snapshot provenance label (`version` command only).
    pub label: Option<String>,
    /// The predicted profile (predict/select).
    pub profile: Option<PredictedProfile>,
    /// The frequency selection (select).
    pub selection: Option<Selection>,
    /// Cache counters (`stats` command only).
    pub stats: Option<CacheStatsReply>,
    /// Server identity, uptime, and windowed rates (`stats` only).
    pub server: Option<ServerStatsReply>,
    /// Prometheus text exposition (`scrape` only).
    pub text: Option<String>,
}

impl Response {
    /// A minimal success reply carrying only the snapshot version.
    pub fn ok(version: u64) -> Self {
        Self {
            ok: true,
            error: None,
            version: version as f64,
            label: None,
            profile: None,
            selection: None,
            stats: None,
            server: None,
            text: None,
        }
    }

    /// A failure reply. Protocol-level failures carry version 0.
    pub fn err(version: u64, message: impl Into<String>) -> Self {
        let mut r = Self::ok(version);
        r.ok = false;
        r.error = Some(message.into());
        r
    }
}

/// Serde-free fast paths for the two hot frame shapes.
///
/// The compat `serde_json` builds a boxed [`serde::value::Value`] tree on
/// both serialize and parse; at ~4.4 KB per predict response that tree —
/// not the model math — dominated the serving profile. This module
/// renders and parses the hot shapes directly against byte buffers,
/// **byte-for-byte identical** to the serde output (pinned by tests
/// below): same field order (declaration order), same float text (the
/// shortest round-trip `{}` rendering, non-finite as `null`), same
/// string escapes. Floats are written by the in-tree Ryu-based writer in
/// `protocol::shortest`, not `core::fmt`; its tests pin it to
/// `format!("{v}")` on ties, subnormals, binade edges and the 2^53
/// integer boundary, and
/// `fast_response_serialization_is_byte_identical_to_serde` pins whole
/// responses to the compat `serde_json`, which still formats with `{}`.
///
/// Both directions are strict: the parser returns `None` on *any*
/// deviation from the canonical shape (missing/duplicate/unknown key,
/// escape sequences, malformed numbers) and the caller falls back to the
/// serde path — so error semantics, including exact error-message text,
/// never change. The serializer refuses (returns `false`) any response
/// carrying fields outside the hot shapes (`label`/`stats`/`server`/
/// `text`), which the caller serializes via serde instead.
pub mod fast {
    use super::{Request, Response};
    use crate::objective::Selection;
    use crate::predictor::PredictedProfile;

    /// Writes one f64 exactly as the compat `serde_json` does: `null`
    /// for non-finite values, the shortest round-trip `{}` text
    /// otherwise.
    pub fn write_f64(out: &mut Vec<u8>, v: f64) {
        if v.is_finite() {
            super::shortest::write(out, v);
        } else {
            out.extend_from_slice(b"null");
        }
    }

    /// Writes a JSON string with the compat escape rules (`"` `\` `\n`
    /// `\r` `\t` escaped by name, other control chars as `\u00xx`).
    pub fn write_json_str(out: &mut Vec<u8>, s: &str) {
        out.push(b'"');
        for c in s.chars() {
            match c {
                '"' => out.extend_from_slice(b"\\\""),
                '\\' => out.extend_from_slice(b"\\\\"),
                '\n' => out.extend_from_slice(b"\\n"),
                '\r' => out.extend_from_slice(b"\\r"),
                '\t' => out.extend_from_slice(b"\\t"),
                c if (c as u32) < 0x20 => {
                    use std::io::Write;
                    write!(out, "\\u{:04x}", c as u32).expect("write to Vec");
                }
                c => {
                    let mut utf8 = [0u8; 4];
                    out.extend_from_slice(c.encode_utf8(&mut utf8).as_bytes());
                }
            }
        }
        out.push(b'"');
    }

    fn write_f64_array(out: &mut Vec<u8>, xs: &[f64]) {
        out.push(b'[');
        for (i, &x) in xs.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            write_f64(out, x);
        }
        out.push(b']');
    }

    /// The workload-independent tail of a serialized profile object:
    /// everything from the comma after the workload string through the
    /// profile's closing brace. The serve workers cache exactly these
    /// bytes per (quantized activities, exec-time) key.
    pub fn write_profile_tail(out: &mut Vec<u8>, profile: &PredictedProfile) {
        out.extend_from_slice(b",\"frequencies\":");
        write_f64_array(out, &profile.frequencies);
        out.extend_from_slice(b",\"power_w\":");
        write_f64_array(out, &profile.power_w);
        out.extend_from_slice(b",\"time_s\":");
        write_f64_array(out, &profile.time_s);
        out.extend_from_slice(b",\"energy_j\":");
        write_f64_array(out, &profile.energy_j);
        out.push(b'}');
    }

    /// Writes a full profile object (workload + tail).
    pub fn write_profile(out: &mut Vec<u8>, profile: &PredictedProfile) {
        out.extend_from_slice(b"{\"workload\":");
        write_json_str(out, &profile.workload);
        write_profile_tail(out, profile);
    }

    /// Writes a selection object.
    pub fn write_selection(out: &mut Vec<u8>, sel: &Selection) {
        out.extend_from_slice(b"{\"frequency_mhz\":");
        write_f64(out, sel.frequency_mhz);
        out.extend_from_slice(b",\"index\":");
        write_f64(out, sel.index as f64);
        out.extend_from_slice(b",\"score\":");
        write_f64(out, sel.score);
        out.extend_from_slice(b",\"perf_degradation\":");
        write_f64(out, sel.perf_degradation);
        out.extend_from_slice(b",\"threshold_applied\":");
        out.extend_from_slice(if sel.threshold_applied {
            b"true"
        } else {
            b"false"
        });
        out.push(b'}');
    }

    /// The fixed bytes between a predict/select response's start and its
    /// version number.
    pub const RESPONSE_OK_HEAD: &[u8] = b"{\"ok\":true,\"error\":null,\"version\":";
    /// The fixed bytes between the version and the profile's workload
    /// string in a predict/select response.
    pub const RESPONSE_PROFILE_HEAD: &[u8] = b",\"label\":null,\"profile\":{\"workload\":";
    /// The bytes between the profile object and the selection value.
    pub const RESPONSE_SELECTION_HEAD: &[u8] = b",\"selection\":";
    /// The fixed trailing bytes of every hot-shape response.
    pub const RESPONSE_TAIL: &[u8] = b",\"stats\":null,\"server\":null,\"text\":null}";

    /// Serializes `resp` into `out` (appending), byte-identical to
    /// `serde_json::to_string(resp)`. Returns `false` without writing
    /// when `resp` carries fields outside the hot shapes — the caller
    /// must then use the serde path.
    pub fn write_response(out: &mut Vec<u8>, resp: &Response) -> bool {
        if resp.label.is_some()
            || resp.stats.is_some()
            || resp.server.is_some()
            || resp.text.is_some()
        {
            return false;
        }
        out.extend_from_slice(b"{\"ok\":");
        out.extend_from_slice(if resp.ok { b"true" } else { b"false" });
        out.extend_from_slice(b",\"error\":");
        match &resp.error {
            Some(e) => write_json_str(out, e),
            None => out.extend_from_slice(b"null"),
        }
        out.extend_from_slice(b",\"version\":");
        write_f64(out, resp.version);
        out.extend_from_slice(b",\"label\":null,\"profile\":");
        match &resp.profile {
            Some(p) => write_profile(out, p),
            None => out.extend_from_slice(b"null"),
        }
        out.extend_from_slice(b",\"selection\":");
        match &resp.selection {
            Some(s) => write_selection(out, s),
            None => out.extend_from_slice(b"null"),
        }
        out.extend_from_slice(RESPONSE_TAIL);
        true
    }

    // ------------------------------------------------------- request parse

    /// One parsed field value: request fields are strings, numbers, or
    /// null only.
    enum Field<'a> {
        Str(&'a str),
        Num(f64),
        Null,
    }

    struct Scan<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Scan<'a> {
        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn eat(&mut self, byte: u8) -> Option<()> {
            if self.bytes.get(self.pos) == Some(&byte) {
                self.pos += 1;
                Some(())
            } else {
                None
            }
        }

        /// A string with no escapes: `"` through the next `"`. Any
        /// backslash or control byte aborts (the serde fallback handles
        /// escapes with identical semantics).
        fn string(&mut self) -> Option<&'a str> {
            self.eat(b'"')?;
            let start = self.pos;
            loop {
                match self.bytes.get(self.pos)? {
                    b'"' => break,
                    b'\\' => return None,
                    b if *b < 0x20 => return None,
                    _ => self.pos += 1,
                }
            }
            let s = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
            self.pos += 1;
            Some(s)
        }

        /// A number, consuming the same charset the compat parser does
        /// and delegating to `str::parse` like it does — identical
        /// accepted grammar, identical bits.
        fn number(&mut self) -> Option<f64> {
            let start = self.pos;
            while matches!(
                self.bytes.get(self.pos),
                Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            ) {
                self.pos += 1;
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()?
                .parse()
                .ok()
        }

        fn literal(&mut self, lit: &[u8]) -> Option<()> {
            if self.bytes[self.pos..].starts_with(lit) {
                self.pos += lit.len();
                Some(())
            } else {
                None
            }
        }

        fn value(&mut self) -> Option<Field<'a>> {
            match self.bytes.get(self.pos)? {
                b'"' => self.string().map(Field::Str),
                b'n' => {
                    self.literal(b"null")?;
                    Some(Field::Null)
                }
                b'0'..=b'9' | b'-' | b'+' | b'.' => self.number().map(Field::Num),
                _ => None,
            }
        }
    }

    fn opt_str(field: Option<Field<'_>>) -> Option<Option<String>> {
        match field {
            Some(Field::Str(s)) => Some(Some(s.to_string())),
            Some(Field::Null) => Some(None),
            _ => None,
        }
    }

    fn opt_num(field: Option<Field<'_>>) -> Option<Option<f64>> {
        match field {
            Some(Field::Num(n)) => Some(Some(n)),
            Some(Field::Null) => Some(None),
            _ => None,
        }
    }

    /// Parses the canonical request shape without building a value tree.
    /// Returns `None` on any deviation — unknown or duplicate keys,
    /// escaped strings, trailing bytes, a missing field — and the caller
    /// falls back to the serde parser, whose behavior (including error
    /// text) is authoritative.
    pub fn parse_request(bytes: &[u8]) -> Option<Request> {
        const KEYS: [&str; 8] = [
            "cmd",
            "workload",
            "fp_active",
            "dram_active",
            "exec_time",
            "objective",
            "threshold",
            "path",
        ];
        let mut scan = Scan { bytes, pos: 0 };
        scan.skip_ws();
        scan.eat(b'{')?;
        let mut fields: [Option<Field<'_>>; 8] = std::array::from_fn(|_| None);
        let mut first = true;
        loop {
            scan.skip_ws();
            if scan.eat(b'}').is_some() {
                break;
            }
            if !first {
                scan.eat(b',')?;
                scan.skip_ws();
            }
            first = false;
            let key = scan.string()?;
            let slot = KEYS.iter().position(|&k| k == key)?;
            if fields[slot].is_some() {
                return None;
            }
            scan.skip_ws();
            scan.eat(b':')?;
            scan.skip_ws();
            fields[slot] = Some(scan.value()?);
        }
        scan.skip_ws();
        if scan.pos != bytes.len() {
            return None;
        }
        // The compat derive requires every field present; a missing one
        // must flow through serde to produce its exact error message.
        if fields.iter().any(Option::is_none) {
            return None;
        }
        let [cmd, workload, fp, dram, exec, objective, threshold, path] = fields;
        let cmd = match cmd {
            Some(Field::Str(s)) => s.to_string(),
            _ => return None,
        };
        Some(Request {
            cmd,
            workload: opt_str(workload)?,
            fp_active: opt_num(fp)?,
            dram_active: opt_num(dram)?,
            exec_time: opt_num(exec)?,
            objective: opt_str(objective)?,
            threshold: opt_num(threshold)?,
            path: opt_str(path)?,
        })
    }

    /// Shallow response scan for the load generator: extracts the `ok`
    /// flag and (for ok replies) the profile's workload without parsing
    /// the float arrays. Relies on the canonical serialization (both the
    /// serde and fast serializers emit it); returns `None` on anything
    /// else so the caller can fall back to a full parse.
    pub fn scan_reply(bytes: &[u8]) -> Option<(bool, Option<&str>)> {
        let ok = if bytes.starts_with(b"{\"ok\":true,") {
            true
        } else if bytes.starts_with(b"{\"ok\":false,") {
            false
        } else {
            return None;
        };
        if !bytes.ends_with(RESPONSE_TAIL) {
            return None;
        }
        const MARKER: &[u8] = b",\"profile\":{\"workload\":\"";
        let at = bytes
            .windows(MARKER.len())
            .position(|w| w == MARKER)
            .map(|p| p + MARKER.len());
        let workload = match at {
            None => None,
            Some(start) => {
                let mut end = start;
                loop {
                    match bytes.get(end)? {
                        b'"' => break,
                        b'\\' => return None,
                        _ => end += 1,
                    }
                }
                Some(std::str::from_utf8(&bytes[start..end]).ok()?)
            }
        };
        Some((ok, workload))
    }
}

/// Parses an objective name from the wire (same names the CLI accepts).
pub fn parse_objective(name: &str) -> Result<crate::objective::Objective, String> {
    use crate::objective::Objective;
    match name {
        "edp" => Ok(Objective::Edp),
        "ed2p" => Ok(Objective::Ed2p),
        "energy" => Ok(Objective::EnergyOnly),
        "time" => Ok(Objective::TimeOnly),
        other => Err(format!(
            "unknown objective `{other}` (expected edp|ed2p|energy|time)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_json() {
        let req = Request::select("lammps", 0.62, 0.31, 12.5, "edp", Some(0.05));
        let json = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);
        // None fields serialize as null and come back as None.
        assert!(json.contains("\"path\":null"));
    }

    #[test]
    fn response_floats_round_trip_bitwise() {
        let profile = PredictedProfile::new(
            "w".into(),
            vec![705.0, 1410.0],
            vec![213.4567890123, 400.0000000001],
            vec![1.618_033_988_749_895, 1.0],
        );
        let mut resp = Response::ok(3);
        resp.profile = Some(profile.clone());
        let json = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        let got = back.profile.unwrap();
        for (a, b) in profile.energy_j.iter().zip(&got.energy_j) {
            assert_eq!(a.to_bits(), b.to_bits(), "energy must survive the wire");
        }
        for (a, b) in profile.time_s.iter().zip(&got.time_s) {
            assert_eq!(a.to_bits(), b.to_bits(), "time must survive the wire");
        }
    }

    #[test]
    fn unknown_objective_is_a_clean_error() {
        assert!(parse_objective("edp").is_ok());
        assert!(parse_objective("frobnicate").is_err());
    }

    /// The contract the serving fast path rests on: for every hot-shape
    /// response, `fast::write_response` emits the *identical bytes* the
    /// serde path would. Any divergence would silently break the
    /// bitwise-parity guarantee between served and in-process profiles.
    #[test]
    fn fast_response_serialization_is_byte_identical_to_serde() {
        // 5e-324 is the smallest subnormal; 2^50 + 0.25 is an exact tie
        // between two 17-digit renderings, which `{}` rounds up.
        let profile = PredictedProfile::new(
            "weird \"name\"\twith\\escapes\nand™unicode".into(),
            vec![705.0, 960.5, 1200.0, 1410.0],
            vec![213.4567890123, 0.1 + 0.2, 5e-324, 400.0000000001],
            vec![1.618_033_988_749_895, 1.25, (1u64 << 50) as f64 + 0.25, 1.0],
        );
        let selection = profile.select(crate::objective::Objective::Edp, Some(0.05));
        let mut predict = Response::ok(12);
        predict.profile = Some(profile.clone());
        let mut select = Response::ok(9_007_199_254);
        select.profile = Some(profile.clone());
        select.selection = Some(selection);
        let mut nonfinite = Response::ok(1);
        nonfinite.profile = Some(PredictedProfile {
            workload: "w".into(),
            frequencies: vec![705.0, 1410.0],
            power_w: vec![f64::NAN, f64::INFINITY],
            time_s: vec![-0.0, 1e-308],
            energy_j: vec![2.5e17, f64::NEG_INFINITY],
        });
        let cases = vec![
            Response::ok(3),
            Response::err(0, "bad request: missing field Request.cmd"),
            Response::err(7, "weird\u{1}control\u{1f}chars"),
            predict,
            select,
            nonfinite,
        ];
        for resp in &cases {
            let mut got = Vec::new();
            assert!(fast::write_response(&mut got, resp), "hot shape refused");
            let want = serde_json::to_string(resp).unwrap();
            assert_eq!(
                String::from_utf8(got).unwrap(),
                want,
                "fast bytes diverge from serde for {resp:?}"
            );
        }
        // Shapes outside the hot set must be refused, not mis-rendered.
        let mut stats = Response::ok(1);
        stats.label = Some("trained".into());
        let mut out = Vec::new();
        assert!(!fast::write_response(&mut out, &stats));
        assert!(out.is_empty(), "refusal must not write");
    }

    /// The composable pieces (prefix constants + tail fragment) assemble
    /// to the same bytes as the whole-response writer — this is the
    /// exact recipe the serve workers use with their fragment cache.
    #[test]
    fn fast_fragment_composition_matches_whole_response() {
        let profile = PredictedProfile::new(
            "wl-7".into(),
            vec![705.0, 1410.0],
            vec![213.45, 400.0],
            vec![1.5, 1.0],
        );
        let selection = profile.select(crate::objective::Objective::Ed2p, None);
        for sel in [None, Some(selection)] {
            let mut resp = Response::ok(42);
            resp.profile = Some(profile.clone());
            resp.selection = sel.clone();
            let mut whole = Vec::new();
            assert!(fast::write_response(&mut whole, &resp));
            // Composed: head + version + profile head + workload + cached
            // tail + selection + fixed tail.
            let mut tail = Vec::new();
            fast::write_profile_tail(&mut tail, &profile);
            let mut composed = Vec::new();
            composed.extend_from_slice(fast::RESPONSE_OK_HEAD);
            fast::write_f64(&mut composed, 42.0);
            composed.extend_from_slice(fast::RESPONSE_PROFILE_HEAD);
            fast::write_json_str(&mut composed, &profile.workload);
            // write_json_str wraps in quotes; the profile head ends at
            // the key's colon, so drop nothing — but the head constant
            // ends *before* the opening quote.
            composed.extend_from_slice(&tail);
            composed.extend_from_slice(fast::RESPONSE_SELECTION_HEAD);
            match &sel {
                Some(s) => fast::write_selection(&mut composed, s),
                None => composed.extend_from_slice(b"null"),
            }
            composed.extend_from_slice(fast::RESPONSE_TAIL);
            assert_eq!(composed, whole);
        }
    }

    /// Round trip: whatever the canonical client serializer emits, the
    /// fast parser accepts and decodes identically to serde.
    #[test]
    fn fast_request_parse_matches_serde_on_canonical_frames() {
        let cases = [
            Request::ping(),
            Request::version(),
            Request::stats(),
            Request::scrape(),
            Request::shutdown(),
            Request::reload("/tmp/models.json"),
            Request::predict("wl-3", 0.62, 0.31, 12.5),
            Request::select("wl-9", 1e-3, 0.999, 0.5, "edp", Some(0.05)),
            Request::select("wl-0", 0.0, 1.0, 9.75, "time", None),
        ];
        for req in &cases {
            let json = serde_json::to_string(req).unwrap();
            let got = fast::parse_request(json.as_bytes())
                .unwrap_or_else(|| panic!("fast parser refused canonical frame {json}"));
            assert_eq!(&got, req);
            // Whitespace-padded variants parse identically too.
            let spaced = json.replace(":", " : ").replace(",", " ,\n");
            let got = fast::parse_request(spaced.as_bytes()).expect("spaced frame");
            assert_eq!(&got, req);
        }
    }

    /// Every deviation from the canonical shape must make the fast
    /// parser abstain (return `None`) rather than guess — the serde
    /// fallback owns those frames and their exact error messages.
    #[test]
    fn fast_request_parse_abstains_on_any_deviation() {
        let deviant: [&[u8]; 10] = [
            b"{\"cmd\":\"ping\"}",                     // missing fields
            b"not json at all",
            b"[1,2,3]",
            b"{\"cmd\":\"ping\",\"cmd\":\"ping\"}",    // duplicate key
            b"{\"cmd\":\"pi\\u006eg\",\"workload\":null,\"fp_active\":null,\"dram_active\":null,\"exec_time\":null,\"objective\":null,\"threshold\":null,\"path\":null}", // escape
            b"{\"cmd\":\"ping\",\"workload\":null,\"fp_active\":null,\"dram_active\":null,\"exec_time\":null,\"objective\":null,\"threshold\":null,\"path\":null,\"extra\":1}", // unknown key
            b"{\"cmd\":null,\"workload\":null,\"fp_active\":null,\"dram_active\":null,\"exec_time\":null,\"objective\":null,\"threshold\":null,\"path\":null}", // cmd not a string
            b"{\"cmd\":\"predict\",\"workload\":\"w\",\"fp_active\":true,\"dram_active\":0.3,\"exec_time\":1.0,\"objective\":null,\"threshold\":null,\"path\":null}", // bool where number
            b"{\"cmd\":\"ping\",\"workload\":null,\"fp_active\":null,\"dram_active\":null,\"exec_time\":null,\"objective\":null,\"threshold\":null,\"path\":null} trailing", // trailing bytes
            b"{\"cmd\":\"predict\",\"workload\":\"w\",\"fp_active\":1.2.3,\"dram_active\":0.3,\"exec_time\":1.0,\"objective\":null,\"threshold\":null,\"path\":null}", // bad number
        ];
        for frame in deviant {
            assert!(
                fast::parse_request(frame).is_none(),
                "fast parser must abstain on {:?}",
                String::from_utf8_lossy(frame)
            );
        }
    }

    #[test]
    fn scan_reply_extracts_ok_and_workload_from_canonical_responses() {
        let profile = PredictedProfile::new(
            "wl-11".into(),
            vec![705.0, 1410.0],
            vec![200.0, 400.0],
            vec![1.5, 1.0],
        );
        let mut ok_resp = Response::ok(2);
        ok_resp.profile = Some(profile);
        let ok_bytes = serde_json::to_string(&ok_resp).unwrap();
        assert_eq!(
            fast::scan_reply(ok_bytes.as_bytes()),
            Some((true, Some("wl-11")))
        );
        let err_bytes = serde_json::to_string(&Response::err(0, "nope")).unwrap();
        assert_eq!(fast::scan_reply(err_bytes.as_bytes()), Some((false, None)));
        // A stats frame (label/server populated) is not the hot shape.
        let mut stats = Response::ok(1);
        stats.text = Some("exposition".into());
        let stats_bytes = serde_json::to_string(&stats).unwrap();
        assert_eq!(fast::scan_reply(stats_bytes.as_bytes()), None);
        assert_eq!(fast::scan_reply(b"garbage"), None);
    }

    /// Collects every dotted key path in a JSON tree; array elements
    /// contribute their paths under `[]` (one representative element is
    /// enough — the schema is homogeneous).
    fn key_paths(value: &serde_json::Value, prefix: &str, out: &mut Vec<String>) {
        match value {
            serde_json::Value::Object(entries) => {
                for (k, v) in entries {
                    let path = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    out.push(path.clone());
                    key_paths(v, &path, out);
                }
            }
            serde_json::Value::Array(items) => {
                if let Some(first) = items.first() {
                    key_paths(first, &format!("{prefix}[]"), out);
                }
            }
            _ => {}
        }
    }

    /// Pins the full `stats`-frame schema. `dvfs top` and shell smoke
    /// scripts parse these exact paths; a rename or removal here is a
    /// breaking dashboard change and must update this list consciously.
    #[test]
    fn stats_frame_schema_is_pinned() {
        let mut resp = Response::ok(3);
        resp.stats = Some(CacheStatsReply {
            lookups: 10.0,
            hits: 8.0,
            misses: 2.0,
            evictions: 0.0,
            hit_rate: 0.8,
            resident: 2.0,
            shards: 4.0,
        });
        resp.server = Some(ServerStatsReply {
            uptime_s: 12.5,
            build_version: "0.1.0".to_string(),
            build_git: "unknown".to_string(),
            precision: "f64".to_string(),
            window_s: 10.0,
            qps: 1000.0,
            p50_us: 120.0,
            p99_us: 900.0,
            hit_rate: 0.8,
            slo: vec![SloReply {
                name: "latency_p99".to_string(),
                target: 0.99,
                burn_fast: 0.1,
                burn_slow: 0.05,
                firing: false,
                alerts: 0.0,
            }],
            quality: vec![QualityReply {
                model: "power".to_string(),
                mape: 3.0,
                max_ape: 9.0,
                samples: 100.0,
                alerts: 0.0,
                above_band: false,
            }],
            energy: EnergyReply {
                predicted_joules_saved: 42.5,
                decisions: 17.0,
                window_watts_saved: 1.5,
                journal_appended: 17.0,
                journal_dropped: 0.0,
            },
        });
        let json = serde_json::to_string(&resp).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let mut paths = Vec::new();
        key_paths(&value, "", &mut paths);
        paths.sort();
        let expected = [
            "error",
            "label",
            "ok",
            "profile",
            "selection",
            "server",
            "server.build_git",
            "server.build_version",
            "server.energy",
            "server.energy.decisions",
            "server.energy.journal_appended",
            "server.energy.journal_dropped",
            "server.energy.predicted_joules_saved",
            "server.energy.window_watts_saved",
            "server.hit_rate",
            "server.p50_us",
            "server.p99_us",
            "server.precision",
            "server.qps",
            "server.quality",
            "server.quality[].above_band",
            "server.quality[].alerts",
            "server.quality[].mape",
            "server.quality[].max_ape",
            "server.quality[].model",
            "server.quality[].samples",
            "server.slo",
            "server.slo[].alerts",
            "server.slo[].burn_fast",
            "server.slo[].burn_slow",
            "server.slo[].firing",
            "server.slo[].name",
            "server.slo[].target",
            "server.uptime_s",
            "server.window_s",
            "stats",
            "stats.evictions",
            "stats.hit_rate",
            "stats.hits",
            "stats.lookups",
            "stats.misses",
            "stats.resident",
            "stats.shards",
            "text",
            "version",
        ];
        assert_eq!(
            paths, expected,
            "stats-frame schema changed — update dashboards (dvfs top, check.sh) first"
        );
        // And the extended reply round-trips.
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp);
    }
}
