//! The JSONL batch runner behind the `vs2d` binary, extracted so its
//! stream handling — including the malformed-input, shed, drain and
//! quarantine paths — is testable against in-memory readers and writers.
//!
//! One consumed input line, one result line, in input order. Lines that
//! fail to parse (bad JSON, invalid UTF-8, longer than
//! [`MAX_LINE_BYTES`], mid-stream read errors) produce an `invalid`
//! result line carrying the line number and error instead of aborting
//! the batch; jobs refused by admission control (or submitted after a
//! drain began) produce a `shed` result line — an overloaded server
//! answers every request, it never silently drops one. After the last
//! result line, one `quarantine` record is emitted per job in the
//! service's quarantine ledger, in sequence order (see
//! [`crate::job::QuarantineRecord`]).
//!
//! Two line forms are consumed without producing a job:
//!
//! * empty lines (skipped entirely, no wire seq consumed), and
//! * the control record `{"control":"drain"}`, which flips the service
//!   into draining (also no wire seq) — the in-stream equivalent of
//!   `vs2d --drain-after`. The record that began the drain is reported
//!   in [`BatchRun::controls`] by line number and [`line_hash`]; one
//!   read while the service already drains changes nothing and is not
//!   reported, so it drains the successor instead.
//!
//! With [`BatchOptions::resume_completed`] set (warm restart from a
//! [`crate::handoff::HandoffSnapshot`]), lines the predecessor already
//! answered — same wire seq, same [`line_hash`] — are skipped; each
//! skipped *valid* spec replays its submission's deterministic side
//! effects — one engine sequence number, one admission tick and its
//! client's bucket token — so the seq-keyed fault plan and the token
//! buckets line up with an uninterrupted run. A line whose wire seq was
//! answered but whose hash differs stops the batch before it is
//! submitted ([`BatchRun::resume_mismatch`]): the input is not the one
//! the snapshot answered. With [`BatchOptions::resume_controls`], the
//! control records the predecessor consumed are skipped the same way
//! (same line number, same hash), so a stream drained by an in-stream
//! record resumes past it instead of draining again.

use std::collections::HashMap;
use std::io::{self, BufRead, ErrorKind, Read, Write};
use std::sync::mpsc;
use std::time::Duration;

use serde::{Deserialize, Value};

use crate::admit::Lane;
use crate::engine::JobOutcome;
use crate::error::ServeError;
use crate::handoff::{line_hash, AnsweredLine, ControlLine};
use crate::job::{JobResult, JobSpec, JobStatus, QuarantineRecord};
use crate::service::ExtractService;

/// Longest input line [`run_batch`] accepts, in bytes before the line
/// terminator. A longer line is never buffered whole: at most
/// `MAX_LINE_BYTES + 2` of its bytes are read, the rest is skipped up to
/// the next newline, and the line is answered `invalid`. The largest
/// inline job line the synthetic corpora produce is about 25 KB (a D1
/// tax form), so the cap sits over 160 times above it.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Reads one line the way `BufRead::lines` does (`\n` or `\r\n`
/// terminator stripped, non-UTF-8 bytes consumed and reported as
/// `InvalidData`), but through the [`MAX_LINE_BYTES`] bound: an over-long
/// line is skipped and reported as `InvalidData` too. `Ok(None)` at end
/// of input.
fn read_capped_line(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    // Room for the line, a `\r\n` terminator, and nothing more.
    let limit = MAX_LINE_BYTES as u64 + 2;
    if reader.by_ref().take(limit).read_until(b'\n', &mut buf)? == 0 {
        return Ok(None);
    }
    let terminated = buf.last() == Some(&b'\n');
    if terminated {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    if buf.len() > MAX_LINE_BYTES {
        if !terminated {
            reader.skip_until(b'\n')?;
        }
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("line longer than {MAX_LINE_BYTES} bytes"),
        ));
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8"))
}

/// Output shaping for [`run_batch`].
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Include wall-clock `latency_us` / `elapsed_us` fields on result
    /// and quarantine lines. Off by default so output is byte-stable
    /// across runs and worker counts.
    pub include_latency: bool,
    /// End the batch with the `{"record":"metrics",...}` tail, rendered
    /// from the service's ledger ([`ExtractService::metrics`]). A
    /// service with a `--trace` [`crate::obs::ObsHub`] ends with the tail
    /// regardless.
    pub emit_metrics: bool,
    /// Client identity applied to specs that carry none — the `vs2d
    /// --client` default feeding per-client admission fairness.
    pub default_client: Option<String>,
    /// Lane applied to specs that carry none (`vs2d --lane`).
    pub default_lane: Lane,
    /// Begin draining after this many submissions: later lines are
    /// still answered, but as `shed` lines with reason `draining`.
    pub drain_after: Option<u64>,
    /// Lines already answered by a predecessor, as wire seq →
    /// [`line_hash`] ([`crate::handoff::HandoffSnapshot::answered`]):
    /// skip them, replaying the engine seq and admission charge of the
    /// valid ones.
    pub resume_completed: Option<HashMap<u64, u64>>,
    /// Control records a predecessor consumed, as input line number →
    /// [`line_hash`] ([`crate::handoff::HandoffSnapshot::consumed_controls`]):
    /// skip them instead of acting on them again.
    pub resume_controls: HashMap<u64, u64>,
}

/// What the result emitter must produce for one consumed input line.
/// Fates arrive in wire order; `wire_seq` is explicit because resumed
/// runs skip lines without emitting anything.
enum LineFate {
    /// A job went into the engine; wait for its result.
    Submitted {
        line: AnsweredLine,
        job_id: String,
        seq: u64,
    },
    /// The line failed to parse or read; report `invalid` immediately.
    Invalid {
        line: AnsweredLine,
        job_id: String,
        error: String,
    },
}

/// Outcome of the submit/emit phase.
pub struct BatchRun {
    /// Processing latencies of jobs that ran (shed jobs excluded), in
    /// engine-sequence order.
    pub latencies: Vec<Duration>,
    /// Input lines that produced no job (parse or read failures).
    pub invalid: u64,
    /// Result lines answered with `status:"shed"`.
    pub shed: u64,
    /// Input lines skipped because a predecessor already answered them.
    pub skipped: u64,
    /// Lines this run answered terminally (every emitted result line
    /// except `shed`), in increasing wire-seq order — the `completed`
    /// list of a drain/handoff snapshot.
    pub completed: Vec<AnsweredLine>,
    /// The drain control record this run consumed to begin draining, if
    /// any — the `controls` list of a drain/handoff snapshot.
    pub controls: Vec<ControlLine>,
    /// The 0-based input line at which a resumed run stopped because
    /// the predecessor answered its wire seq (or consumed a control
    /// record on that line) for a different line.
    pub resume_mismatch: Option<u64>,
    /// The quarantine records emitted after the result lines, in
    /// increasing wire-seq order.
    pub quarantine_records: Vec<QuarantineRecord>,
}

/// Submits every job spec from `reader` while a second thread streams
/// results to `out` in input order. Engine sequence numbers are assigned
/// in submission order, so the emitter simply waits on them as the fates
/// arrive.
///
/// Input hardening: a line that is not valid JSON, not valid UTF-8,
/// longer than [`MAX_LINE_BYTES`], or hits a read error mid-stream
/// yields an `invalid` result line (with the 0-based line number in its
/// `job_id` default and the error text) and the batch continues — except on non-recoverable I/O errors,
/// where the batch stops after reporting the failing line.
pub fn run_batch(
    service: &ExtractService,
    mut reader: impl BufRead,
    out: impl Write + Send,
    opts: &BatchOptions,
) -> BatchRun {
    let include_latency = opts.include_latency;
    let emit_metrics = opts.emit_metrics;
    let (fate_tx, fate_rx) = mpsc::channel::<LineFate>();
    let mut invalid = 0u64;
    let mut skipped = 0u64;
    let mut controls = Vec::new();
    let mut resume_mismatch = None;
    let (latencies, shed, completed, quarantine_records) = std::thread::scope(|scope| {
        let emitter = scope.spawn(move || {
            let mut out = out;
            let mut lats = Vec::new();
            let mut shed = 0u64;
            let mut completed: Vec<AnsweredLine> = Vec::new();
            // With tracing on, each result line is followed by that
            // job's span records, and the batch ends with a metrics
            // snapshot. Off (the default), the wire format is untouched.
            let trace_hub = service.obs().cloned();
            // Engine seq → (wire seq, job id): the two diverge once an
            // invalid line consumes a wire seq without entering the
            // engine, and quarantine records must speak wire seqs.
            let mut ids_by_seq: std::collections::HashMap<u64, (u64, String)> =
                std::collections::HashMap::new();
            for fate in fate_rx.iter() {
                let mut engine_seq = None;
                let result = match fate {
                    LineFate::Submitted { line, job_id, seq } => {
                        engine_seq = Some(seq);
                        let done = service.wait_result(seq);
                        ids_by_seq.insert(seq, (line.seq, job_id.clone()));
                        let (status, extractions, error) = match done.outcome {
                            JobOutcome::Ok(ex) => (JobStatus::Ok, ex, None),
                            JobOutcome::Degraded { output, error } => {
                                (JobStatus::Degraded, output, Some(error.to_string()))
                            }
                            JobOutcome::Failed(error) => {
                                (JobStatus::Quarantined, vec![], Some(error.to_string()))
                            }
                            JobOutcome::Shed(reason) => (
                                JobStatus::Shed,
                                vec![],
                                Some(ServeError::Overloaded { reason }.to_string()),
                            ),
                        };
                        let is_shed = status == JobStatus::Shed;
                        if is_shed {
                            shed += 1;
                        } else {
                            lats.push(done.latency);
                            completed.push(line);
                        }
                        JobResult {
                            seq: line.seq,
                            job_id,
                            status,
                            extractions,
                            error,
                            latency_us: (include_latency && !is_shed).then(|| {
                                u64::try_from(done.latency.as_micros()).unwrap_or(u64::MAX)
                            }),
                        }
                    }
                    LineFate::Invalid {
                        line,
                        job_id,
                        error,
                    } => {
                        completed.push(line);
                        JobResult {
                            seq: line.seq,
                            job_id,
                            status: JobStatus::Invalid,
                            extractions: vec![],
                            error: Some(error),
                            latency_us: None,
                        }
                    }
                };
                let line = serde_json::to_string(&result).expect("result serialises");
                writeln!(out, "{line}").expect("write output");
                if let (Some(hub), Some(seq)) = (&trace_hub, engine_seq) {
                    if let Some(spans) = hub.take_spans(seq) {
                        for span in &spans {
                            let line = vs2_obs::export::span_json(result.seq, &result.job_id, span);
                            writeln!(out, "{line}").expect("write output");
                        }
                    }
                }
            }
            // Every submitted job has completed (each Submitted fate
            // waited on its result), so the quarantine ledger is final
            // for this batch. Emit this batch's entries in seq order —
            // the ledger itself is in quarantine-time order, which is
            // scheduling-dependent, and (being append-only) may carry
            // entries from earlier batches on the same service.
            let mut ledger = service.quarantine();
            ledger.retain(|e| ids_by_seq.contains_key(&e.seq));
            ledger.sort_by_key(|e| e.seq);
            let mut records = Vec::with_capacity(ledger.len());
            for entry in ledger {
                let (wire_seq, job_id) = ids_by_seq[&entry.seq].clone();
                let record = QuarantineRecord {
                    seq: wire_seq,
                    job_id,
                    kind: entry.error.kind().to_string(),
                    error: entry.error.to_string(),
                    elapsed_us: include_latency
                        .then(|| u64::try_from(entry.elapsed.as_micros()).unwrap_or(u64::MAX)),
                };
                let line = serde_json::to_string(&record).expect("record serialises");
                writeln!(out, "{line}").expect("write output");
                records.push(record);
            }
            if emit_metrics || trace_hub.is_some() {
                for line in service.metrics().metrics_lines(&service.cache_snapshot()) {
                    writeln!(out, "{line}").expect("write output");
                }
            }
            out.flush().expect("flush output");
            (lats, shed, completed, records)
        });
        let mut wire_seq = 0u64;
        let mut submissions = 0u64;
        for line_no in 0.. {
            let read = match read_capped_line(&mut reader) {
                Ok(None) => break,
                Ok(Some(text)) if text.trim().is_empty() => continue,
                Ok(Some(text)) => Ok(text),
                Err(e) => Err(e),
            };
            let hash = match &read {
                Ok(text) => line_hash(text.as_bytes()),
                Err(e) => line_hash(e.to_string().as_bytes()),
            };
            // Warm restart: a control record the predecessor consumed on
            // this line is skipped, not acted on again; other bytes on
            // that line mean a different input.
            if let Some(&consumed) = opts.resume_controls.get(&line_no) {
                if consumed != hash {
                    resume_mismatch = Some(line_no);
                    break;
                }
                continue;
            }
            let parsed = match &read {
                // A broken line must not abort the batch: report it
                // in-stream and keep going (or stop after it, below).
                Err(e) => Err(format!("input read error at line {line_no}: {e}")),
                Ok(text) => match serde_json::parse(text) {
                    // Control records steer the service without
                    // consuming a wire seq — they are commands, not
                    // jobs, and must not shift the seqs of surrounding
                    // result lines. A job line's spec is read from the
                    // same parsed tree.
                    Ok(value) if value.get("control").is_some() => {
                        if matches!(value.get("control"), Some(Value::Str(cmd)) if cmd == "drain") {
                            if !service.is_draining() {
                                service.begin_drain();
                                controls.push(ControlLine {
                                    line: line_no,
                                    hash,
                                });
                            }
                            continue;
                        }
                        Err(format!("unknown control record at line {line_no}"))
                    }
                    value => value
                        .and_then(|v| JobSpec::from_value(&v))
                        .map(|mut spec| {
                            if spec.client.is_none() {
                                spec.client = opts.default_client.clone();
                            }
                            spec
                        })
                        .map_err(|e| format!("invalid job spec at line {line_no}: {e}")),
                },
            };
            let line = AnsweredLine {
                seq: wire_seq,
                hash,
            };
            wire_seq += 1;
            // Named by its own wire seq, so blank lines and control
            // records before it do not rename it.
            let default_id = || format!("job-{}", line.seq);
            // `InvalidData` (non-UTF-8 bytes, an over-long line)
            // consumes exactly the offending line, so the stream stays
            // aligned; any other I/O error means the source itself
            // failed — report, then stop.
            let source_failed = matches!(&read, Err(e) if e.kind() != ErrorKind::InvalidData);
            // Warm restart: a line the predecessor already answered is
            // skipped; a valid skipped spec still replays its engine
            // seq, admission tick and bucket charge so seq- and
            // tick-keyed decisions stay aligned with an uninterrupted
            // run. The same seq over different bytes means a different
            // input: stop before submitting anything from it.
            match opts
                .resume_completed
                .as_ref()
                .and_then(|done| done.get(&line.seq))
            {
                Some(&hash) if hash == line.hash => {
                    if let Ok(spec) = &parsed {
                        service.skip_submission(spec.client.as_deref());
                    }
                    skipped += 1;
                }
                Some(_) => {
                    resume_mismatch = Some(line_no);
                    break;
                }
                None => match parsed {
                    Ok(spec) => {
                        let job_id = spec.job_id.clone().unwrap_or_else(default_id);
                        if opts.drain_after == Some(submissions) {
                            service.begin_drain();
                        }
                        // Backpressure: blocks while the work queue is
                        // full (shed decisions fire before the queue, so
                        // an admission-controlled service never blocks
                        // here under overload).
                        let seq = service.submit_spec(spec, opts.default_lane);
                        submissions += 1;
                        let _ = fate_tx.send(LineFate::Submitted { line, job_id, seq });
                    }
                    Err(error) => {
                        invalid += 1;
                        let _ = fate_tx.send(LineFate::Invalid {
                            line,
                            job_id: default_id(),
                            error,
                        });
                    }
                },
            }
            if source_failed {
                break;
            }
        }
        drop(fate_tx);
        emitter.join().expect("emitter thread")
    });
    BatchRun {
        latencies,
        invalid,
        shed,
        skipped,
        completed,
        controls,
        resume_mismatch,
        quarantine_records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admit::AdmitConfig;
    use crate::engine::EngineConfig;
    use crate::job::DEFAULT_DOC_SEED;
    use crate::service::ServiceOptions;
    use std::io::Cursor;

    fn test_service(workers: usize) -> ExtractService {
        ExtractService::with_options(
            EngineConfig {
                workers,
                queue_capacity: 8,
                ..EngineConfig::default()
            },
            DEFAULT_DOC_SEED,
            None,
            ServiceOptions::default(),
            None,
        )
    }

    fn seqs(run: &BatchRun) -> Vec<u64> {
        run.completed.iter().map(|l| l.seq).collect()
    }

    /// The first `n` lines of `input` as a predecessor's answered map.
    fn answered(input: &str, n: usize) -> HashMap<u64, u64> {
        (0u64..)
            .zip(input.lines().take(n))
            .map(|(seq, line)| (seq, line_hash(line.as_bytes())))
            .collect()
    }

    fn parse_lines(out: &[u8]) -> Vec<JobResult> {
        String::from_utf8(out.to_vec())
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str::<JobResult>(l).unwrap())
            .collect()
    }

    #[test]
    fn mixed_good_and_bad_lines_all_get_result_lines() {
        let input = concat!(
            "{\"dataset\":\"D1\",\"doc_index\":0}\n",
            "this is not json\n",
            "\n",
            "{\"dataset\":\"D1\",\"doc_index\":1,\"job_id\":\"named\"}\n",
            "{\"dataset\":\"D1\"}\n",
            "{\"dataset\":\"D1\",\"doc_index\":2}\n",
        );
        let service = test_service(2);
        let mut out = Vec::new();
        let run = run_batch(
            &service,
            Cursor::new(input),
            &mut out,
            &BatchOptions::default(),
        );
        assert_eq!(run.invalid, 2);
        assert_eq!(run.shed, 0);
        assert_eq!(run.skipped, 0);
        assert_eq!(seqs(&run), vec![0, 1, 2, 3, 4]);
        let results = parse_lines(&out);
        assert_eq!(
            results
                .iter()
                .filter(|r| r.status != JobStatus::Invalid)
                .map(|r| r.job_id.as_str())
                .collect::<Vec<_>>(),
            vec!["job-0", "named", "job-4"]
        );
        // 5 non-empty lines → 5 result lines, in input order.
        assert_eq!(results.len(), 5);
        assert_eq!(
            results.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(results[0].status, JobStatus::Ok);
        assert_eq!(results[1].status, JobStatus::Invalid);
        assert!(
            results[1].error.as_deref().unwrap().contains("line 1"),
            "{:?}",
            results[1].error
        );
        assert_eq!(results[2].job_id, "named");
        assert_eq!(results[2].status, JobStatus::Ok);
        assert_eq!(results[3].status, JobStatus::Invalid);
        assert_eq!(results[4].status, JobStatus::Ok);
        service.shutdown();
    }

    #[test]
    fn deeply_nested_line_is_invalid_and_the_stream_continues() {
        // 300k unclosed brackets used to overflow the parser's recursion
        // and abort the process, losing every later job.
        let doc = vs2_synth::dataset::generate_one(
            vs2_synth::dataset::DatasetId::D1,
            0,
            vs2_synth::dataset::DatasetConfig::new(1, DEFAULT_DOC_SEED),
        )
        .doc;
        let inline = Value::Object(vec![
            ("dataset".to_string(), Value::Str("D1".to_string())),
            ("doc".to_string(), serde::Serialize::to_value(&doc)),
        ]);
        let input = format!(
            "{}\n{}\n",
            "[".repeat(300_000),
            serde_json::to_string(&inline).unwrap()
        );
        let service = test_service(1);
        let mut out = Vec::new();
        let run = run_batch(
            &service,
            Cursor::new(input),
            &mut out,
            &BatchOptions::default(),
        );
        assert_eq!(run.invalid, 1);
        let results = parse_lines(&out);
        assert_eq!(results.len(), 2, "one answer per line, no abort");
        assert_eq!(results[0].status, JobStatus::Invalid);
        assert!(
            results[0]
                .error
                .as_deref()
                .unwrap()
                .contains("nesting deeper than"),
            "{:?}",
            results[0].error
        );
        assert_eq!(results[1].status, JobStatus::Ok);
        assert!(!results[1].extractions.is_empty());
        service.shutdown();
    }

    #[test]
    fn over_long_line_is_invalid_and_the_stream_continues() {
        // A job line padded past the cap would parse as a valid job; the
        // reader must refuse it without buffering it whole, skip to its
        // newline, and go on to the next line.
        let doc = vs2_synth::dataset::generate_one(
            vs2_synth::dataset::DatasetId::D1,
            0,
            vs2_synth::dataset::DatasetConfig::new(1, DEFAULT_DOC_SEED),
        )
        .doc;
        let inline = Value::Object(vec![
            ("dataset".to_string(), Value::Str("D1".to_string())),
            ("doc".to_string(), serde::Serialize::to_value(&doc)),
        ]);
        let padded = format!(
            "{{\"dataset\":\"D1\",\"doc_index\":0}}{}",
            " ".repeat(MAX_LINE_BYTES)
        );
        let input = format!("{padded}\n{}\n", serde_json::to_string(&inline).unwrap());
        let service = test_service(1);
        let mut out = Vec::new();
        let run = run_batch(
            &service,
            Cursor::new(input),
            &mut out,
            &BatchOptions::default(),
        );
        assert_eq!(run.invalid, 1);
        let results = parse_lines(&out);
        assert_eq!(results.len(), 2, "one answer per line");
        assert_eq!(results[0].status, JobStatus::Invalid);
        assert!(
            results[0]
                .error
                .as_deref()
                .unwrap()
                .contains("input read error at line 0: line longer than"),
            "{:?}",
            results[0].error
        );
        assert_eq!(results[1].status, JobStatus::Ok);
        assert!(!results[1].extractions.is_empty());
        service.shutdown();
    }

    #[test]
    fn line_at_the_cap_is_read_whole() {
        let line = format!(
            "{{\"dataset\":\"D1\",\"doc_index\":0}}{}",
            " ".repeat(MAX_LINE_BYTES - 30)
        );
        assert_eq!(line.len(), MAX_LINE_BYTES);
        for input in [format!("{line}\r\n"), line.clone()] {
            let mut reader = Cursor::new(input);
            assert_eq!(read_capped_line(&mut reader).unwrap(), Some(line.clone()));
            assert_eq!(read_capped_line(&mut reader).unwrap(), None);
        }
    }

    #[test]
    fn invalid_utf8_line_is_reported_and_the_stream_continues() {
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"{\"dataset\":\"D1\",\"doc_index\":0}\n");
        input.extend_from_slice(b"\xff\xfe broken bytes \xff\n");
        input.extend_from_slice(b"{\"dataset\":\"D1\",\"doc_index\":1}\n");
        let service = test_service(1);
        let mut out = Vec::new();
        let run = run_batch(
            &service,
            Cursor::new(input),
            &mut out,
            &BatchOptions::default(),
        );
        assert_eq!(run.invalid, 1);
        let results = parse_lines(&out);
        assert_eq!(results.len(), 3, "the bad line must not end the batch");
        assert_eq!(results[0].status, JobStatus::Ok);
        assert_eq!(results[1].status, JobStatus::Invalid);
        assert!(
            results[1]
                .error
                .as_deref()
                .unwrap()
                .contains("input read error at line 1"),
            "{:?}",
            results[1].error
        );
        assert_eq!(results[2].status, JobStatus::Ok);
        let stats = service.shutdown();
        assert_eq!(stats.ok, 2);
    }

    #[test]
    fn default_output_is_stable_and_latency_is_opt_in() {
        let input = "{\"dataset\":\"D1\",\"doc_index\":0}\n";
        let service = test_service(2);
        let mut plain = Vec::new();
        run_batch(
            &service,
            Cursor::new(input),
            &mut plain,
            &BatchOptions::default(),
        );
        let mut with_latency = Vec::new();
        run_batch(
            &service,
            Cursor::new(input),
            &mut with_latency,
            &BatchOptions {
                include_latency: true,
                ..BatchOptions::default()
            },
        );
        let plain = String::from_utf8(plain).unwrap();
        let with_latency = String::from_utf8(with_latency).unwrap();
        assert!(!plain.contains("latency_us"), "{plain}");
        assert!(with_latency.contains("latency_us"), "{with_latency}");
        service.shutdown();
    }

    fn admission_service(workers: usize, bucket_capacity: u32) -> ExtractService {
        ExtractService::with_options(
            EngineConfig {
                workers,
                queue_capacity: 8,
                admit: Some(
                    AdmitConfig::for_queue(8)
                        .inert_pressure()
                        .with_buckets(bucket_capacity, 0),
                ),
                ..EngineConfig::default()
            },
            DEFAULT_DOC_SEED,
            None,
            ServiceOptions::default(),
            None,
        )
    }

    #[test]
    fn shed_jobs_get_in_stream_result_lines_not_silence() {
        // One token per client, no refill: of three same-client jobs,
        // the first is served and the rest are shed — each with its own
        // result line.
        let input = concat!(
            "{\"dataset\":\"D1\",\"doc_index\":0,\"client\":\"t\"}\n",
            "{\"dataset\":\"D1\",\"doc_index\":1,\"client\":\"t\"}\n",
            "{\"dataset\":\"D1\",\"doc_index\":2,\"client\":\"t\"}\n",
        );
        let service = admission_service(1, 1);
        let mut out = Vec::new();
        let run = run_batch(
            &service,
            Cursor::new(input),
            &mut out,
            &BatchOptions::default(),
        );
        assert_eq!(run.shed, 2);
        assert_eq!(seqs(&run), vec![0]);
        let results = parse_lines(&out);
        assert_eq!(results.len(), 3, "shed jobs still get result lines");
        assert_eq!(results[0].status, JobStatus::Ok);
        for r in &results[1..] {
            assert_eq!(r.status, JobStatus::Shed);
            assert!(
                r.error.as_deref().unwrap().contains("rate_limited"),
                "{:?}",
                r.error
            );
            assert!(r.extractions.is_empty());
        }
        service.shutdown();
    }

    #[test]
    fn drain_control_record_sheds_the_rest_of_the_stream() {
        let input = concat!(
            "{\"dataset\":\"D1\",\"doc_index\":0}\n",
            "{\"control\":\"drain\"}\n",
            "{\"dataset\":\"D1\",\"doc_index\":1}\n",
        );
        let service = test_service(1);
        let mut out = Vec::new();
        let run = run_batch(
            &service,
            Cursor::new(input),
            &mut out,
            &BatchOptions::default(),
        );
        assert!(service.is_draining());
        assert_eq!(run.shed, 1);
        assert_eq!(run.invalid, 0);
        let results = parse_lines(&out);
        // The control record consumes no wire seq.
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].status, JobStatus::Ok);
        assert_eq!(results[1].seq, 1);
        assert_eq!(results[1].status, JobStatus::Shed);
        assert!(
            results[1].error.as_deref().unwrap().contains("draining"),
            "{:?}",
            results[1].error
        );
        service.shutdown();
    }

    #[test]
    fn unknown_control_records_are_invalid_lines() {
        let input = concat!(
            "{\"control\":\"reboot\"}\n",
            "{\"dataset\":\"D1\",\"doc_index\":0}\n",
        );
        let service = test_service(1);
        let mut out = Vec::new();
        let run = run_batch(
            &service,
            Cursor::new(input),
            &mut out,
            &BatchOptions::default(),
        );
        assert_eq!(run.invalid, 1);
        assert!(!service.is_draining());
        let results = parse_lines(&out);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].status, JobStatus::Invalid);
        assert!(
            results[0]
                .error
                .as_deref()
                .unwrap()
                .contains("unknown control record"),
            "{:?}",
            results[0].error
        );
        assert_eq!(results[1].status, JobStatus::Ok);
        service.shutdown();
    }

    #[test]
    fn drain_after_sheds_the_tail_deterministically() {
        let input: String = (0..6)
            .map(|i| format!("{{\"dataset\":\"D1\",\"doc_index\":{i}}}\n"))
            .collect();
        let service = test_service(2);
        let mut out = Vec::new();
        let run = run_batch(
            &service,
            Cursor::new(input),
            &mut out,
            &BatchOptions {
                drain_after: Some(4),
                ..BatchOptions::default()
            },
        );
        assert_eq!(run.shed, 2);
        assert_eq!(seqs(&run), vec![0, 1, 2, 3]);
        let results = parse_lines(&out);
        for r in &results[..4] {
            assert_eq!(r.status, JobStatus::Ok);
        }
        for r in &results[4..] {
            assert_eq!(r.status, JobStatus::Shed);
        }
        service.shutdown();
    }

    #[test]
    fn resume_skips_answered_lines_and_burns_engine_seqs() {
        let input = concat!(
            "{\"dataset\":\"D1\",\"doc_index\":0}\n",
            "not json either\n",
            "{\"dataset\":\"D1\",\"doc_index\":1}\n",
            "{\"dataset\":\"D1\",\"doc_index\":2}\n",
        );
        // Wire seqs 0 and 1 (one valid, one invalid) were answered by
        // the predecessor.
        let service = test_service(1);
        let mut out = Vec::new();
        let run = run_batch(
            &service,
            Cursor::new(input),
            &mut out,
            &BatchOptions {
                resume_completed: Some(answered(input, 2)),
                ..BatchOptions::default()
            },
        );
        assert_eq!(run.skipped, 2);
        assert_eq!(run.invalid, 0);
        assert_eq!(seqs(&run), vec![2, 3]);
        let results = parse_lines(&out);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].seq, 2);
        assert_eq!(results[1].seq, 3);
        // The skipped valid spec burned engine seq 0; the invalid line
        // never had one. Submitted jobs then took seqs 1 and 2.
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.ok, 2);
    }

    #[test]
    fn resume_stops_at_an_answered_seq_whose_line_differs() {
        let predecessor = concat!(
            "{\"dataset\":\"D1\",\"doc_index\":0}\n",
            "{\"dataset\":\"D1\",\"doc_index\":1}\n",
        );
        let input = concat!(
            "{\"dataset\":\"D1\",\"doc_index\":0}\n",
            "{\"dataset\":\"D2\",\"doc_index\":1}\n",
            "{\"dataset\":\"D1\",\"doc_index\":2}\n",
        );
        let service = test_service(1);
        let mut out = Vec::new();
        let run = run_batch(
            &service,
            Cursor::new(input),
            &mut out,
            &BatchOptions {
                resume_completed: Some(answered(predecessor, 2)),
                ..BatchOptions::default()
            },
        );
        // Line 0 matches and is skipped; line 1 carries an answered seq
        // over different bytes, so nothing from it on is submitted.
        assert_eq!(run.resume_mismatch, Some(1));
        assert_eq!(run.skipped, 1);
        assert!(run.completed.is_empty());
        assert!(out.is_empty());
        assert_eq!(service.shutdown().submitted, 0);
    }

    #[test]
    fn resume_skips_answered_unreadable_and_control_lines() {
        // Every line a run answers — an unreadable one and an unknown
        // control record included — is skipped by a successor handed
        // that run's answers, so none is answered twice.
        let mut input = b"{\"dataset\":\"D1\",\"doc_index\":0}\n".to_vec();
        input.extend_from_slice(b"\xff\xfe\n{\"control\":\"pause\"}\n");
        let first = test_service(1);
        let mut out = Vec::new();
        let run = run_batch(
            &first,
            Cursor::new(&input),
            &mut out,
            &BatchOptions::default(),
        );
        first.shutdown();
        assert_eq!(seqs(&run), vec![0, 1, 2]);
        assert_eq!(run.invalid, 2);
        let successor = test_service(1);
        let mut out = Vec::new();
        let resumed = run_batch(
            &successor,
            Cursor::new(&input),
            &mut out,
            &BatchOptions {
                resume_completed: Some(run.completed.iter().map(|l| (l.seq, l.hash)).collect()),
                ..BatchOptions::default()
            },
        );
        assert_eq!((resumed.skipped, resumed.resume_mismatch), (3, None));
        assert!(out.is_empty(), "{}", String::from_utf8_lossy(&out));
        assert_eq!(successor.shutdown().submitted, 0);
    }

    #[test]
    fn resume_skips_the_drain_record_the_predecessor_consumed() {
        let input = concat!(
            "{\"dataset\":\"D1\",\"doc_index\":0}\n",
            "{\"control\":\"drain\"}\n",
            "{\"dataset\":\"D1\",\"doc_index\":1}\n",
            "{\"control\":\"drain\"}\n",
            "{\"dataset\":\"D1\",\"doc_index\":2}\n",
        );
        let first = test_service(1);
        let run = run_batch(
            &first,
            Cursor::new(input),
            Vec::new(),
            &BatchOptions::default(),
        );
        first.shutdown();
        // Only the record that began the drain is consumed; the second
        // one found the service draining already.
        let control = ControlLine {
            line: 1,
            hash: line_hash(b"{\"control\":\"drain\"}"),
        };
        assert_eq!(run.controls, [control]);
        assert_eq!((seqs(&run), run.shed), (vec![0], 2));
        let resume = |controls: HashMap<u64, u64>| BatchOptions {
            resume_completed: Some(run.completed.iter().map(|l| (l.seq, l.hash)).collect()),
            resume_controls: controls,
            ..BatchOptions::default()
        };
        // The successor skips line 1, answers job 1, and is drained by
        // the record on line 3 in its turn.
        let successor = test_service(1);
        let mut out = Vec::new();
        let resumed = run_batch(
            &successor,
            Cursor::new(input),
            &mut out,
            &resume([(1, control.hash)].into()),
        );
        successor.shutdown();
        assert_eq!((seqs(&resumed), resumed.shed), (vec![1], 1));
        assert_eq!(resumed.controls, [ControlLine { line: 3, ..control }]);
        // Other bytes on a consumed record's line mean another input.
        let foreign = test_service(1);
        let mut out = Vec::new();
        let stopped = run_batch(
            &foreign,
            Cursor::new(input),
            &mut out,
            &resume([(1, control.hash ^ 1)].into()),
        );
        foreign.shutdown();
        assert_eq!(stopped.resume_mismatch, Some(1));
        assert!(out.is_empty());
    }
}
