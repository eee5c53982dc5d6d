//! Trace exports: JSONL (lossless, byte-reproducible, re-auditable) and
//! Chrome `trace_event` JSON (drag into `chrome://tracing` or Perfetto).
//!
//! The JSONL form is the interchange format. The first line is a header
//! carrying the audit ground truth (makespan, CPU count, per-thread
//! bucket totals) so a file can be re-audited standalone by
//! `trace_dump`; each following line is one event. Every float is stored
//! as a `u64` IEEE-754 bit pattern, so a parsed file audits *bit for
//! bit* like the in-memory recording. Keys are emitted in sorted order
//! and integers as plain decimals, so equal recordings serialise to
//! identical bytes — the golden-trace determinism tests diff files
//! directly. No event is spelled out here: an event line carries every
//! field of its vocabulary row under the field's own name (integers as
//! decimals, kinds as their labels), written through
//! [`TraceEvent::visit_fields`] and read back through
//! [`TraceEvent::from_fields`].
//!
//! The Chrome form is the human-facing view: charges become duration
//! (`"X"`) slices on one lane per CPU, everything else becomes instant
//! events on one lane per thread (confidence updates on a scheduler
//! lane keyed by static transaction). It is lossy by design — floats
//! are printed as floats there.

use crate::json::Json;
use bfgts_scenario::Scenario;
use bfgts_trace::{
    AuditInputs, BucketKind, ConfKind, DecisionKind, FieldKind, FieldValue, TraceEvent, TraceRec,
    TraceRecording,
};

/// Format version stamped into (and required of) the JSONL header.
/// Version 2 added the fault-injection instants (`fault_bloom_corrupt`,
/// `fault_conf_poison`, DESIGN.md §9); version 3 added the optional
/// embedded scenario (`"scenario"`, DESIGN.md §10) so a trace file names
/// the exact run that produced it. Version 3 also carries the sharding
/// instants (`shard_touch`, `cross_shard_commit`, DESIGN.md §11) — a
/// purely additive extension, since unsharded traces never emit them.
/// The open-system instants (`tx_arrival`, `queue_depth`, DESIGN.md §12)
/// are additive in the same way — batch traces never emit them — so the
/// version stays at 3 and every previously written file still parses.
pub const TRACE_FORMAT_VERSION: u64 = 3;

/// Serialises a recording plus its audit ground truth as JSONL.
pub fn to_jsonl(recording: &TraceRecording, inputs: &AuditInputs) -> String {
    to_jsonl_with_scenario(recording, inputs, None)
}

/// Like [`to_jsonl`], but embeds the scenario that produced the
/// recording into the header, making the file self-describing.
pub fn to_jsonl_with_scenario(
    recording: &TraceRecording,
    inputs: &AuditInputs,
    scenario: Option<&Scenario>,
) -> String {
    let mut pairs = vec![
        ("type", Json::Str("header".into())),
        ("version", Json::UInt(TRACE_FORMAT_VERSION)),
        ("makespan", Json::UInt(inputs.makespan)),
        ("num_cpus", Json::UInt(inputs.num_cpus as u64)),
        (
            "per_thread",
            Json::Arr(
                inputs
                    .per_thread
                    .iter()
                    .map(|row| Json::Arr(row.iter().map(|&c| Json::UInt(c)).collect()))
                    .collect(),
            ),
        ),
        ("events", Json::UInt(recording.events.len() as u64)),
        ("dropped", Json::UInt(recording.dropped)),
    ];
    // Absent-key protocol: only runs under a window-based greedy manager
    // declare a seed, so every pre-I11 trace file serialises unchanged.
    if let Some(seed) = inputs.window_seed {
        pairs.push(("window_seed", Json::UInt(seed)));
    }
    if let Some(scenario) = scenario {
        pairs.push(("scenario", scenario.to_json()));
    }
    use std::fmt::Write as _;
    let header = Json::obj(pairs);
    // Pre-size from the event count and stream every record straight
    // into the one buffer — no per-record intermediate `String`.
    let mut out = String::with_capacity(256 + recording.events.len() * 96);
    let _ = writeln!(out, "{header}");
    for rec in &recording.events {
        let _ = writeln!(out, "{}", rec_to_json(rec));
    }
    out
}

/// Parses a JSONL trace back into a recording and its audit inputs.
/// Inverse of [`to_jsonl`]; errors name the offending line. A header
/// scenario, if embedded, is dropped — use [`parse_jsonl_full`] to keep
/// it.
pub fn parse_jsonl(text: &str) -> Result<(TraceRecording, AuditInputs), String> {
    parse_jsonl_full(text).map(|(rec, inputs, _)| (rec, inputs))
}

/// Parses a JSONL trace including the embedded scenario, when the header
/// carries one. Inverse of [`to_jsonl_with_scenario`].
pub fn parse_jsonl_full(
    text: &str,
) -> Result<(TraceRecording, AuditInputs, Option<Scenario>), String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty());
    let (_, first) = lines.next().ok_or("empty trace file")?;
    let header = Json::parse(first).map_err(|e| format!("line 1: {e}"))?;
    if header.get("type").and_then(Json::as_str) != Some("header") {
        return Err("line 1: not a trace header".into());
    }
    let version = header
        .get("version")
        .and_then(Json::as_u64)
        .ok_or("line 1: header has no version")?;
    if version != TRACE_FORMAT_VERSION {
        return Err(format!(
            "unsupported trace format version {version} (expected {TRACE_FORMAT_VERSION})"
        ));
    }
    let field = |key: &str| {
        header
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line 1: header field '{key}' missing or malformed"))
    };
    let makespan = field("makespan")?;
    let num_cpus = field("num_cpus")?;
    // The audit sizes per-CPU state from this count.
    if num_cpus > bfgts_htm::MAX_CPUS as u64 {
        return Err(format!(
            "line 1: header declares {num_cpus} cpus, above the limit of {}",
            bfgts_htm::MAX_CPUS
        ));
    }
    let num_cpus = num_cpus as usize;
    let dropped = field("dropped")?;
    let declared = field("events")?;
    let per_thread: Vec<[u64; BucketKind::COUNT]> = header
        .get("per_thread")
        .and_then(Json::as_arr)
        .ok_or("line 1: header field 'per_thread' missing")?
        .iter()
        .map(|row| {
            let cells = row.as_arr()?;
            let mut out = [0u64; BucketKind::COUNT];
            if cells.len() != out.len() {
                return None;
            }
            for (slot, cell) in out.iter_mut().zip(cells) {
                *slot = cell.as_u64()?;
            }
            Some(out)
        })
        .collect::<Option<_>>()
        .ok_or("line 1: malformed 'per_thread' row")?;
    let window_seed = match header.get("window_seed") {
        None => None,
        Some(doc) => Some(
            doc.as_u64()
                .ok_or("line 1: header field 'window_seed' malformed")?,
        ),
    };
    let scenario = match header.get("scenario") {
        None => None,
        Some(doc) => {
            Some(Scenario::from_json(doc).map_err(|e| format!("line 1: embedded scenario: {e}"))?)
        }
    };

    // Sized by the lines actually present, never by the header's count.
    let events = lines
        .map(|(i, line)| {
            let n = i + 1;
            let value = Json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
            rec_from_json(&value).ok_or_else(|| format!("line {n}: malformed event"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if events.len() as u64 != declared {
        return Err(format!(
            "header declares {declared} events but file has {}",
            events.len()
        ));
    }
    Ok((
        TraceRecording { events, dropped },
        AuditInputs {
            makespan,
            num_cpus,
            per_thread,
            window_seed,
        },
        scenario,
    ))
}

fn rec_to_json(rec: &TraceRec) -> Json {
    let mut pairs: Vec<(&'static str, Json)> = vec![
        ("seq", Json::UInt(rec.seq)),
        ("at", Json::UInt(rec.at)),
        ("ev", Json::Str(rec.ev.name().into())),
    ];
    rec.ev.visit_fields(|key, value| {
        let json = match value {
            FieldValue::U32(x) => Json::UInt(u64::from(x)),
            FieldValue::U64(x) => Json::UInt(x),
            FieldValue::Bool(b) => Json::Bool(b),
            FieldValue::Bucket(b) => Json::Str(b.label().into()),
            FieldValue::Decision(d) => Json::Str(d.label().into()),
            FieldValue::Conf(k) => Json::Str(k.label().into()),
        };
        pairs.push((key, json));
    });
    Json::obj(pairs)
}

fn rec_from_json(v: &Json) -> Option<TraceRec> {
    let seq = v.get("seq")?.as_u64()?;
    let at = v.get("at")?.as_u64()?;
    let name = v.get("ev")?.as_str()?;
    let ev = TraceEvent::from_fields(name, |key, kind| {
        let field = v.get(key)?;
        Some(match kind {
            FieldKind::U32 => FieldValue::U32(field.as_u64()?.try_into().ok()?),
            FieldKind::U64 => FieldValue::U64(field.as_u64()?),
            FieldKind::Bool => match field {
                Json::Bool(b) => FieldValue::Bool(*b),
                _ => return None,
            },
            FieldKind::Bucket => FieldValue::Bucket(BucketKind::from_label(field.as_str()?)?),
            FieldKind::Decision => FieldValue::Decision(DecisionKind::from_label(field.as_str()?)?),
            FieldKind::Conf => FieldValue::Conf(ConfKind::from_label(field.as_str()?)?),
        })
    })?;
    Some(TraceRec { seq, at, ev })
}

/// Renders a recording in Chrome `trace_event` format.
pub fn to_chrome(recording: &TraceRecording, inputs: &AuditInputs) -> String {
    const PID_CPUS: u64 = 0;
    const PID_THREADS: u64 = 1;
    const PID_SCHED: u64 = 2;
    let meta = |pid: u64, name: &str| {
        Json::obj([
            ("ph", Json::Str("M".into())),
            ("pid", Json::UInt(pid)),
            ("tid", Json::UInt(0)),
            ("name", Json::Str("process_name".into())),
            ("args", Json::obj([("name", Json::Str(name.into()))])),
        ])
    };
    let mut events = vec![
        meta(PID_CPUS, "cpus"),
        meta(PID_THREADS, "threads"),
        meta(PID_SCHED, "scheduler (by stx)"),
    ];
    let float = |bits: u64| {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            Json::Float(x)
        } else {
            Json::Str(format!("0x{bits:016x}"))
        }
    };
    let instant = |pid: u64, tid: u64, at: u64, name: String, args: Json| {
        Json::obj([
            ("ph", Json::Str("i".into())),
            ("pid", Json::UInt(pid)),
            ("tid", Json::UInt(tid)),
            ("ts", Json::UInt(at)),
            ("s", Json::Str("t".into())),
            ("name", Json::Str(name)),
            ("args", args),
        ])
    };
    for rec in &recording.events {
        let at = rec.at;
        events.push(match rec.ev {
            TraceEvent::Charge {
                cpu,
                thread,
                bucket,
                cycles,
            } => Json::obj([
                ("ph", Json::Str("X".into())),
                ("pid", Json::UInt(PID_CPUS)),
                ("tid", Json::UInt(u64::from(cpu))),
                ("ts", Json::UInt(at)),
                ("dur", Json::UInt(cycles)),
                ("cat", Json::Str("charge".into())),
                ("name", Json::Str(bucket.label().into())),
                (
                    "args",
                    Json::obj([("thread", Json::UInt(u64::from(thread)))]),
                ),
            ]),
            TraceEvent::ContextSwitch { cpu, thread, cost } => instant(
                PID_CPUS,
                u64::from(cpu),
                at,
                "context_switch".into(),
                Json::obj([
                    ("thread", Json::UInt(u64::from(thread))),
                    ("cost", Json::UInt(cost)),
                ]),
            ),
            TraceEvent::Refile {
                thread,
                from,
                to,
                requested,
                moved,
            } => instant(
                PID_THREADS,
                u64::from(thread),
                at,
                "refile".into(),
                Json::obj([
                    ("from", Json::Str(from.label().into())),
                    ("to", Json::Str(to.label().into())),
                    ("requested", Json::UInt(requested)),
                    ("moved", Json::UInt(moved)),
                ]),
            ),
            TraceEvent::TxBegin {
                thread,
                stx,
                retries,
            } => instant(
                PID_THREADS,
                u64::from(thread),
                at,
                format!("tx_begin stx{stx}"),
                Json::obj([("retries", Json::UInt(u64::from(retries)))]),
            ),
            TraceEvent::TxConflict {
                thread,
                stx,
                enemy_thread,
                enemy_stx,
                stalled,
            } => instant(
                PID_THREADS,
                u64::from(thread),
                at,
                format!("tx_conflict stx{stx}"),
                Json::obj([
                    ("enemy_thread", Json::UInt(u64::from(enemy_thread))),
                    ("enemy_stx", Json::UInt(u64::from(enemy_stx))),
                    ("stalled", Json::Bool(stalled)),
                ]),
            ),
            TraceEvent::TxStall { thread, stx } => instant(
                PID_THREADS,
                u64::from(thread),
                at,
                format!("tx_stall stx{stx}"),
                Json::obj([]),
            ),
            TraceEvent::TxSuspend {
                thread,
                stx,
                target_thread,
                target_stx,
                yielding,
            } => instant(
                PID_THREADS,
                u64::from(thread),
                at,
                format!("tx_suspend stx{stx}"),
                Json::obj([
                    ("target_thread", Json::UInt(u64::from(target_thread))),
                    ("target_stx", Json::UInt(u64::from(target_stx))),
                    ("yielding", Json::Bool(yielding)),
                ]),
            ),
            TraceEvent::TxAbort {
                thread,
                stx,
                undo_lines,
            } => instant(
                PID_THREADS,
                u64::from(thread),
                at,
                format!("tx_abort stx{stx}"),
                Json::obj([("undo_lines", Json::UInt(u64::from(undo_lines)))]),
            ),
            TraceEvent::TxCommit {
                thread,
                stx,
                retries,
                rw_lines,
            } => instant(
                PID_THREADS,
                u64::from(thread),
                at,
                format!("tx_commit stx{stx}"),
                Json::obj([
                    ("retries", Json::UInt(u64::from(retries))),
                    ("rw_lines", Json::UInt(u64::from(rw_lines))),
                ]),
            ),
            TraceEvent::SchedDecision {
                thread,
                stx,
                kind,
                target_thread,
                target_stx,
                cost,
            } => instant(
                PID_THREADS,
                u64::from(thread),
                at,
                format!("sched:{} stx{stx}", kind.label()),
                Json::obj([
                    ("target_thread", Json::UInt(u64::from(target_thread))),
                    ("target_stx", Json::UInt(u64::from(target_stx))),
                    ("cost", Json::UInt(cost)),
                ]),
            ),
            TraceEvent::ConfUpdate {
                kind,
                a_stx,
                b_stx,
                sim_a_bits,
                sim_b_bits,
                param_bits,
                applied_bits,
            } => instant(
                PID_SCHED,
                u64::from(a_stx),
                at,
                format!("conf:{}", kind.label()),
                Json::obj([
                    ("b_stx", Json::UInt(u64::from(b_stx))),
                    ("sim_a", float(sim_a_bits)),
                    ("sim_b", float(sim_b_bits)),
                    ("param", float(param_bits)),
                    ("applied", float(applied_bits)),
                ]),
            ),
            TraceEvent::BloomSample {
                thread,
                stx,
                raw_bits,
                clamped_bits,
            } => instant(
                PID_THREADS,
                u64::from(thread),
                at,
                format!("bloom_sample stx{stx}"),
                Json::obj([("raw", float(raw_bits)), ("clamped", float(clamped_bits))]),
            ),
            TraceEvent::ShardTouch { thread, stx, shard } => instant(
                PID_THREADS,
                u64::from(thread),
                at,
                format!("shard_touch stx{stx}"),
                Json::obj([("shard", Json::UInt(u64::from(shard)))]),
            ),
            TraceEvent::CrossShardCommit {
                thread,
                stx,
                shards,
                cost,
            } => instant(
                PID_THREADS,
                u64::from(thread),
                at,
                format!("cross_shard_commit stx{stx}"),
                Json::obj([
                    ("shards", Json::UInt(u64::from(shards))),
                    ("cost", Json::UInt(cost)),
                ]),
            ),
            TraceEvent::FaultBloomCorrupt { thread, stx, bits } => instant(
                PID_THREADS,
                u64::from(thread),
                at,
                format!("fault:bloom_corrupt stx{stx}"),
                Json::obj([("bits", Json::UInt(u64::from(bits)))]),
            ),
            TraceEvent::FalsePositiveConflict {
                thread,
                stx,
                enemy_thread,
                enemy_stx,
                true_conflicts,
            } => instant(
                PID_THREADS,
                u64::from(thread),
                at,
                format!("false_positive_conflict stx{stx}"),
                Json::obj([
                    ("enemy_thread", Json::UInt(u64::from(enemy_thread))),
                    ("enemy_stx", Json::UInt(u64::from(enemy_stx))),
                    ("true_conflicts", Json::UInt(u64::from(true_conflicts))),
                ]),
            ),
            TraceEvent::CapacityAbort {
                thread,
                stx,
                tracked,
                capacity,
            } => instant(
                PID_THREADS,
                u64::from(thread),
                at,
                format!("capacity_abort stx{stx}"),
                Json::obj([
                    ("tracked", Json::UInt(u64::from(tracked))),
                    ("capacity", Json::UInt(u64::from(capacity))),
                ]),
            ),
            TraceEvent::FaultConfPoison {
                thread,
                saturate,
                entries,
            } => instant(
                PID_THREADS,
                u64::from(thread),
                at,
                "fault:conf_poison".into(),
                Json::obj([
                    ("saturate", Json::Bool(saturate)),
                    ("entries", Json::UInt(entries)),
                ]),
            ),
            TraceEvent::TxArrival {
                thread,
                stx,
                arrival,
            } => instant(
                PID_THREADS,
                u64::from(thread),
                at,
                format!("tx_arrival stx{stx}"),
                Json::obj([("arrival", Json::UInt(arrival))]),
            ),
            TraceEvent::QueueDepth { thread, depth } => instant(
                PID_THREADS,
                u64::from(thread),
                at,
                "queue_depth".into(),
                Json::obj([("depth", Json::UInt(depth))]),
            ),
            TraceEvent::WindowAdvance {
                thread,
                window,
                priority,
            } => instant(
                PID_THREADS,
                u64::from(thread),
                at,
                format!("window_advance w{window}"),
                Json::obj([("priority", Json::UInt(priority))]),
            ),
        });
    }
    let doc = Json::obj([
        ("displayTimeUnit", Json::Str("ns".into())),
        ("traceEvents", Json::Arr(events)),
        (
            "otherData",
            Json::obj([
                ("makespan", Json::UInt(inputs.makespan)),
                ("num_cpus", Json::UInt(inputs.num_cpus as u64)),
            ]),
        ),
    ]);
    doc.to_string() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfgts_trace::NO_TARGET;

    /// One of every event variant, with deliberately awkward values
    /// (`NO_TARGET`, negative floats).
    fn sample_recording() -> (TraceRecording, AuditInputs) {
        let evs = [
            TraceEvent::Charge {
                cpu: 0,
                thread: 1,
                bucket: BucketKind::Tx,
                cycles: 40,
            },
            TraceEvent::Refile {
                thread: 1,
                from: BucketKind::Tx,
                to: BucketKind::Abort,
                requested: 40,
                moved: 40,
            },
            TraceEvent::ContextSwitch {
                cpu: 0,
                thread: 1,
                cost: 12,
            },
            TraceEvent::TxBegin {
                thread: 1,
                stx: 2,
                retries: 0,
            },
            TraceEvent::TxConflict {
                thread: 1,
                stx: 2,
                enemy_thread: 0,
                enemy_stx: NO_TARGET,
                stalled: true,
            },
            TraceEvent::TxStall { thread: 1, stx: 2 },
            TraceEvent::TxSuspend {
                thread: 1,
                stx: 2,
                target_thread: 0,
                target_stx: 3,
                yielding: false,
            },
            TraceEvent::TxAbort {
                thread: 1,
                stx: 2,
                undo_lines: 7,
            },
            TraceEvent::TxCommit {
                thread: 1,
                stx: 2,
                retries: 1,
                rw_lines: 9,
            },
            TraceEvent::SchedDecision {
                thread: 1,
                stx: 2,
                kind: DecisionKind::Yield,
                target_thread: 0,
                target_stx: 3,
                cost: 250,
            },
            TraceEvent::ConfUpdate {
                kind: ConfKind::SuspendDecay,
                a_stx: 2,
                b_stx: 3,
                sim_a_bits: 0.25f64.to_bits(),
                sim_b_bits: 0.75f64.to_bits(),
                param_bits: 0.1f64.to_bits(),
                applied_bits: (-0.05f64).to_bits(),
            },
            TraceEvent::BloomSample {
                thread: 1,
                stx: 2,
                raw_bits: (-0.3f64).to_bits(),
                clamped_bits: 0.0f64.to_bits(),
            },
            TraceEvent::ShardTouch {
                thread: 1,
                stx: 2,
                shard: 5,
            },
            TraceEvent::CrossShardCommit {
                thread: 1,
                stx: 2,
                shards: 2,
                cost: 120,
            },
            TraceEvent::FaultBloomCorrupt {
                thread: 1,
                stx: 2,
                bits: 64,
            },
            TraceEvent::FalsePositiveConflict {
                thread: 1,
                stx: 2,
                enemy_thread: 0,
                enemy_stx: NO_TARGET,
                true_conflicts: 0,
            },
            TraceEvent::CapacityAbort {
                thread: 1,
                stx: 2,
                tracked: 9,
                capacity: 8,
            },
            TraceEvent::FaultConfPoison {
                thread: 1,
                saturate: true,
                entries: 16,
            },
            TraceEvent::TxArrival {
                thread: 1,
                stx: 2,
                arrival: 155,
            },
            TraceEvent::QueueDepth {
                thread: 1,
                depth: 3,
            },
            TraceEvent::WindowAdvance {
                thread: 1,
                window: 4,
                priority: bfgts_trace::window_priority(0xB16_B00B5, 1, 4),
            },
        ];
        let events = evs
            .into_iter()
            .enumerate()
            .map(|(i, ev)| TraceRec {
                seq: i as u64,
                at: (i as u64) * 10,
                ev,
            })
            .collect();
        let recording = TraceRecording { events, dropped: 0 };
        let inputs = AuditInputs {
            makespan: 1000,
            num_cpus: 2,
            per_thread: vec![[1, 2, 3, 4, 5], [10, 20, 30, 40, 50]],
            window_seed: Some(0xB16_B00B5),
        };
        (recording, inputs)
    }

    /// The JSONL bytes of every variant, pinned: the encoder must
    /// reproduce the committed file exactly.
    #[test]
    fn jsonl_bytes_of_every_variant_are_pinned() {
        let (recording, inputs) = sample_recording();
        let want = include_str!("../tests/fixtures/every_variant.jsonl");
        assert_eq!(to_jsonl(&recording, &inputs), want);
    }

    #[test]
    fn golden_trace_reserialises_byte_identically() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/golden/trace_perfect.jsonl"
        );
        let text = std::fs::read_to_string(path).expect("golden trace readable");
        let (recording, inputs, scenario) = parse_jsonl_full(&text).unwrap();
        assert!(scenario.is_some(), "the golden trace embeds its scenario");
        assert!(
            to_jsonl_with_scenario(&recording, &inputs, scenario.as_ref()) == text,
            "re-serialised golden trace differs from the committed file"
        );
    }

    /// A new vocabulary row cannot skip the pins above: the sample holds
    /// exactly one event per canonical name.
    #[test]
    fn sample_recording_holds_one_event_per_name() {
        let (recording, _) = sample_recording();
        let mut got: Vec<&str> = recording.events.iter().map(|r| r.ev.name()).collect();
        let mut want = TraceEvent::NAMES.to_vec();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn jsonl_round_trips_every_variant_exactly() {
        let (recording, inputs) = sample_recording();
        let text = to_jsonl(&recording, &inputs);
        let (parsed_rec, parsed_inputs) = parse_jsonl(&text).unwrap();
        assert_eq!(parsed_rec, recording);
        assert_eq!(parsed_inputs, inputs);
        // And serialisation is a fixed point: re-export is byte-identical.
        assert_eq!(to_jsonl(&parsed_rec, &parsed_inputs), text);
    }

    #[test]
    fn jsonl_rejects_corrupt_input() {
        let (recording, inputs) = sample_recording();
        let text = to_jsonl(&recording, &inputs);
        assert!(parse_jsonl("").is_err());
        assert!(parse_jsonl("{\"seq\":0}").is_err(), "missing header");
        let bad_count = text.replace("\"events\":21", "\"events\":22");
        assert!(parse_jsonl(&bad_count).is_err(), "event count mismatch");
        let bad_version = text.replace("\"version\":3", "\"version\":99");
        assert!(parse_jsonl(&bad_version).is_err(), "future version");
        let bad_event = text.replace("\"ev\":\"tx_stall\"", "\"ev\":\"tx_mystery\"");
        assert!(parse_jsonl(&bad_event).is_err(), "unknown event name");
        let wide = text.replace("\"stx\":2", "\"stx\":4294967296");
        assert!(parse_jsonl(&wide).is_err(), "u32 field out of range");
        let bad_label = text.replace("\"bucket\":\"tx\"", "\"bucket\":\"mystery\"");
        assert!(parse_jsonl(&bad_label).is_err(), "unknown bucket label");
        let missing = text.replace("\"stalled\":true,", "");
        assert!(parse_jsonl(&missing).is_err(), "missing field");
        // A huge declared count is a mismatch, not an allocation.
        let huge = text.replace("\"events\":21", "\"events\":4000000000000000");
        assert!(parse_jsonl(&huge).is_err(), "huge declared event count");
    }

    #[test]
    fn embedded_scenarios_round_trip_through_the_header() {
        use bfgts_scenario::{ManagerSpec, Platform, WorkloadSpec};
        let (recording, inputs) = sample_recording();
        let mut scenario = Scenario::new(
            WorkloadSpec::Preset {
                name: "Kmeans".into(),
                total_txs: 100,
            },
            ManagerSpec::Serial,
            Platform::small(),
        );
        scenario.trace = bfgts_sim::TraceMode::Full;
        let text = to_jsonl_with_scenario(&recording, &inputs, Some(&scenario));
        let (parsed_rec, parsed_inputs, parsed_scenario) = parse_jsonl_full(&text).unwrap();
        assert_eq!(parsed_rec, recording);
        assert_eq!(parsed_inputs, inputs);
        assert_eq!(parsed_scenario.as_ref(), Some(&scenario));
        // A scenario-free file still parses, reporting no scenario.
        let (_, _, none) = parse_jsonl_full(&to_jsonl(&recording, &inputs)).unwrap();
        assert!(none.is_none());
        // And embedding does not disturb the event stream fixed point.
        assert_eq!(
            to_jsonl_with_scenario(&parsed_rec, &parsed_inputs, parsed_scenario.as_ref()),
            text
        );
    }

    #[test]
    fn chrome_export_is_valid_json_with_cpu_slices() {
        let (recording, inputs) = sample_recording();
        let text = to_chrome(&recording, &inputs);
        let doc = Json::parse(text.trim_end()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 3 process-name metadata records + one record per event.
        assert_eq!(events.len(), 3 + recording.events.len());
        let slice = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .expect("charge becomes a duration slice");
        assert_eq!(slice.get("dur").and_then(Json::as_u64), Some(40));
        assert_eq!(slice.get("name").and_then(Json::as_str), Some("tx"));
    }
}
