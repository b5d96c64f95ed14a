// failmine/sim/simulator.hpp
//
// Top-level Mira digital twin: orchestrates the population, workload,
// fault and I/O models into one mutually consistent four-log trace.
//
// Consistency guarantees:
//  * every SYSTEM_* job failure coincides with a FATAL episode on a board
//    inside the job's partition at the job's end time;
//  * every task of a job lies within the job's [start, end] window and the
//    last task carries the job's exit status;
//  * every I/O record refers to an existing job;
//  * logs are time-sorted with unique ascending record ids.

#pragma once

#include <string>

#include "ingest/loader.hpp"
#include "iolog/io_record.hpp"
#include "joblog/job.hpp"
#include "raslog/event.hpp"
#include "sim/config.hpp"
#include "sim/fault_model.hpp"
#include "tasklog/task.hpp"

namespace failmine::sim {

/// The four generated logs plus the fault-model ground truth.
struct SimResult {
  joblog::JobLog job_log;
  tasklog::TaskLog task_log;
  raslog::RasLog ras_log;
  iolog::IoLog io_log;
  /// Ground-truth interruption episodes (for validating the filter).
  std::vector<FatalEpisode> episodes;
};

/// Runs the full simulation for `config`. Deterministic in config.seed.
SimResult simulate(const SimConfig& config);

/// Writes all four logs as CSV files into `directory`
/// (ras.csv, jobs.csv, tasks.csv, io.csv). Throws IoError.
void write_dataset(const SimResult& result, const std::string& directory);

/// Loads a dataset previously written by write_dataset. `episodes` comes
/// back empty (ground truth is not part of the log schema, as in reality).
/// All four logs load through the mmap ingest engine; `options` tunes it
/// (threads == 1 parses each file inline on the calling thread).
SimResult load_dataset(const std::string& directory,
                       const topology::MachineConfig& machine,
                       const ingest::LoadOptions& options = {});

}  // namespace failmine::sim
