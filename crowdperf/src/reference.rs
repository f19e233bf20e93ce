//! The identity gate: the serial, paper-faithful reference at every
//! drain point, and the byte comparison every measured snapshot must
//! pass before any number is reported.
//!
//! The reference runs in a child process (see `main.rs`), so neither
//! its time nor its memory is part of what the parent measures. It
//! writes one length-prefixed blob per drain point to a file inside the
//! working directory; the parent reads them back one at a time, so the
//! comparison holds at most one reference report in memory.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crowd_core::{IncrementalEvaluator, KaryIncrementalEvaluator, KaryWorkerReport, WorkerReport};
use crowd_wire::Reply;
use crowd_wire::proto::encode_reply;

use crate::workload::{CONFIDENCE, Op, Workload};

/// A binary report as the wire carries it: the `encode_reply` payload,
/// so every interval's bit pattern counts.
pub fn binary_bytes(report: &WorkerReport) -> Vec<u8> {
    encode_reply(&Reply::Report(report.clone())).1
}

/// A k-ary report (which has no wire encoding) as the bit patterns of
/// every field, in report order.
pub fn kary_bytes(report: &KaryWorkerReport) -> Vec<u8> {
    let mut out = Vec::new();
    let f64s = |out: &mut Vec<u8>, xs: &[f64]| {
        out.extend_from_slice(&(xs.len() as u64).to_le_bytes());
        for x in xs {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    };
    for a in &report.assessments {
        out.extend_from_slice(&a.worker.0.to_le_bytes());
        f64s(&mut out, a.v.as_slice());
        f64s(&mut out, a.response_prob.as_slice());
        f64s(&mut out, &a.selectivity);
        for ci in &a.intervals {
            f64s(&mut out, &[ci.center, ci.half_width, ci.confidence]);
        }
        out.extend_from_slice(&(a.triples_used as u64).to_le_bytes());
        out.push(u8::from(a.weights_fell_back));
    }
    for (w, e) in &report.failures {
        out.extend_from_slice(&w.0.to_le_bytes());
        out.extend_from_slice(format!("{e:?}").as_bytes());
    }
    out
}

/// Replays the schedule through a single-threaded
/// [`IncrementalEvaluator`] (or [`KaryIncrementalEvaluator`]) and writes
/// its uncached `evaluate_all` report at every drain point to `path`.
pub fn write(w: &Workload, path: &Path) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    let (m, n, k) = (w.data.n_workers(), w.data.n_tasks(), w.data.arity());
    let mut put = |bytes: Vec<u8>| -> io::Result<()> {
        out.write_all(&(bytes.len() as u64).to_le_bytes())?;
        out.write_all(&bytes)
    };
    if w.is_kary() {
        let mut ev = KaryIncrementalEvaluator::new(m, n, k, w.estimator.clone());
        for op in &w.ops {
            match op {
                Op::Ingest(range) => w.batches[range.clone()]
                    .iter()
                    .flatten()
                    .for_each(|&r| ev.ingest(r).expect("generated responses are valid")),
                Op::DrainPoint => put(kary_bytes(
                    &ev.evaluate_all(CONFIDENCE).map_err(io::Error::other)?,
                ))?,
                Op::Assess(_) => {}
            }
        }
    } else {
        let mut ev = IncrementalEvaluator::new(m, n, k, w.estimator.clone());
        for op in &w.ops {
            match op {
                Op::Ingest(range) => w.batches[range.clone()]
                    .iter()
                    .flatten()
                    .for_each(|&r| ev.ingest(r).expect("generated responses are valid")),
                Op::DrainPoint => put(binary_bytes(
                    &ev.evaluate_all(CONFIDENCE).map_err(io::Error::other)?,
                ))?,
                Op::Assess(_) => {}
            }
        }
    }
    out.flush()?;
    out.into_inner().map_err(io::Error::other)?.sync_all()
}

/// Sequential reader over a reference file; [`Reference::rewind`]
/// starts the next pass over the same schedule.
#[derive(Debug)]
pub struct Reference {
    file: BufReader<File>,
    /// Drain points compared so far, over every pass.
    pub checked: usize,
    point: usize,
}

impl Reference {
    /// Opens a file written by [`write`].
    pub fn open(path: &Path) -> io::Result<Self> {
        Ok(Self {
            file: BufReader::new(File::open(path)?),
            checked: 0,
            point: 0,
        })
    }

    /// Back to the first drain point.
    pub fn rewind(&mut self) -> io::Result<()> {
        self.point = 0;
        self.file.seek(SeekFrom::Start(0)).map(|_| ())
    }

    /// Compares `got` with the reference at the next drain point.
    pub fn check(&mut self, got: &[u8]) -> Result<(), String> {
        let point = self.point;
        self.point += 1;
        let want = self
            .next_blob()
            .map_err(|e| format!("drain point {point}: no reference ({e})"))?;
        if want != got {
            let first = want.iter().zip(got).position(|(a, b)| a != b);
            return Err(format!(
                "drain point {point}: snapshot is not byte-identical to the serial reference \
                 ({} vs {} bytes, first difference at {:?})",
                got.len(),
                want.len(),
                first.unwrap_or(want.len().min(got.len()))
            ));
        }
        self.checked += 1;
        Ok(())
    }

    fn next_blob(&mut self) -> io::Result<Vec<u8>> {
        let mut len = [0u8; 8];
        self.file.read_exact(&mut len)?;
        let mut blob =
            vec![0u8; usize::try_from(u64::from_le_bytes(len)).map_err(io::Error::other)?];
        self.file.read_exact(&mut blob)?;
        Ok(blob)
    }
}
