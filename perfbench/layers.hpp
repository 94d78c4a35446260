// Codec operations shared by the workloads, and the per-layer probe every
// traced run reports.
//
// The manifest's per-layer metrics are the same on every workload: each
// traced run measures the codec's layers (core, bits, fpmath), the OpenMP
// chunk engine and the store and frame calls a request crosses on a sample
// of its own inputs. What only one workload can show (Server::stats(),
// IngestStats, the served latency split) it prints as details beside its
// layer-budget table.
#pragma once

#include <vector>

#include "bench.hpp"
#include "core/pfpl.hpp"
#include "trace.hpp"

namespace pb {

/// One compress + decompress operation and its Serial reference.
struct Case {
  repro::Field field;
  repro::EbType eb = repro::EbType::ABS;
  Bytes ref_stream;
  std::vector<u8> ref_recon;
};

/// Serial reference of every case, checked against the bound: one operation
/// each. It is the benchmark's checking machinery, not the workload's, and is
/// never part of setup_s.
void make_case_references(std::vector<Case>& cases, Outcome& ops);

/// Compress + decompress each case once with `exec`, results unchecked
/// (every timed operation is checked).
void warm_up(const std::vector<Case>& cases, repro::pfpl::Executor exec);

struct PassTimes {
  double compress_s = 0;
  double decompress_s = 0;
  u64 bytes = 0;  ///< raw bytes of the cases (each is compressed and decompressed)
};

/// One timed pass: compress and decompress every case with `exec`, then
/// check the stream, the bound and the decompressed bytes (outside the
/// timed calls).
PassTimes codec_pass(const std::vector<Case>& cases, repro::pfpl::Executor exec, Outcome& ops);

/// Raw bytes over Serial stream bytes of the cases.
double ratio_of(const std::vector<Case>& cases);

/// What probe_layers measured that a workload's own budget table uses.
struct LayerTimes {
  double staged_ms = 0;          ///< one traced staged pass over every sample case
  double untraced_ms = 0;        ///< one untraced pfpl Serial pass over the same cases
  double plan_ms = 0;            ///< plan_header over the ABS cases, timed alone
  double assemble_ms = 0;        ///< assemble_stream over the ABS cases, timed alone
  double omp_compress_ms = 0;    ///< OpenMP pfpl::compress of the ABS cases (median)
};

/// The shared per-layer metrics, measured on `fields` (a sample of the
/// workload's inputs) under ABS, REL and NOA: the staged re-run of the codec
/// (`reps` times, checked byte-identical to pfpl::compress), det_log/det_exp,
/// encode_chunk percentiles, and on the ABS cases (the bound type of the
/// served, ingest and codec_omp workloads) plan_header and assemble_stream
/// alone against OpenMP pfpl::compress and the store and frame calls of a
/// request. Adds every per-layer metric of the manifest except
/// trace.overhead_share, prints the staged layer budget, and appends its
/// spans to `tr`.
LayerTimes probe_layers(const std::vector<repro::Field>& fields, int reps, Tracer& tr,
                        Report& rep);

}  // namespace pb
