// Shared plumbing of the benchmark runner: options, the calibrated
// operation log, and the result line.
#ifndef HILOG_PERFBENCH_BENCH_H_
#define HILOG_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "calib.h"
#include "src/obs/metrics.h"

namespace hlbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// CLOCK_MONOTONIC reading (ns) taken by run.py when the workload's
  /// set-up began; set-up time is measured from there.
  int64_t t0_ns = -1;
  std::string socket;  // served_mixed: the server's Unix socket.
  int server_pid = 0;  // served_mixed: read for the server's VmHWM.
  std::string out;     // gen: where to write the served base program.
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// Timed operations of one run, each with the reference task that ran
/// just before it. Operation i is calibrated against the mean of the
/// reference runs on either side of it (reference i and i+1), so
/// `Reference()` runs once more than `Record()` by the end.
class OpLog {
 public:
  /// Runs the reference task; call before every timed operation.
  void Reference() { refs_.push_back(task_.RunMs()); }
  /// Records a reference run made elsewhere (another process).
  void AddReference(double ms) { refs_.push_back(ms); }
  /// Records one timed operation of class `cls`.
  void Record(int cls, double ms) { ops_.push_back({cls, ms}); }

  /// Calibrated times (ms) of the operations of class `cls`, or of all
  /// operations when cls < 0, in log order.
  std::vector<double> Calibrated(int cls) const;
  /// Raw wall-clock times, same selection.
  std::vector<double> Raw(int cls) const;
  double MeanReferenceMs() const;
  /// The reference task's result, printed so its work stays observable.
  uint64_t ReferenceHits() const { return task_.sink(); }

 private:
  struct Op {
    int cls;
    double ms;
  };
  ReferenceTask task_;
  std::vector<double> refs_;
  std::vector<Op> ops_;
};

/// Linear-interpolated quantile (q in [0,1]) of unsorted values.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// What one run reports. Workloads fill the metric maps; main prints the
/// map the --trace flag selects.
struct RunResult {
  bool correct = true;
  std::string error;  // First failed check, printed to stderr.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> end_to_end;
  std::map<std::string, double> per_layer;

  void Fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

/// Fills the end-to-end metrics every workload reports from its op log:
/// op_ms / op_ms_p90 over the operations of `cls` (all when < 0), and
/// ops_per_s over every timed operation; calibrated times, or raw ones
/// when `calibrated` is false.
void ReportTimes(const OpLog& log, int cls, bool calibrated,
                 RunResult* result);

/// The per-layer metric names (all printed by every traced run; a layer
/// the workload does not exercise reads 0).
const std::vector<std::string>& PerLayerNames();

/// Peak resident set (VmHWM) of a process, in MB; pid 0 is this process.
double PeakRssMb(int pid);

double PhaseMs(const hilog::obs::MetricsRegistry& m, hilog::obs::Phase p);

/// Sets the counter-based per-layer metrics from `m`, as means over
/// `ops` operations (ratios as they are).
void AddCounters(const hilog::obs::MetricsRegistry& m, double ops,
                 RunResult* result);

/// Checks the engine and the oracles against the literal W_P operator of
/// src/wfs/ on a small instance of every program part. "" or the failure.
std::string CheckAgainstReference();

/// The workloads. Each runs its set-up, then whole rounds of operations
/// until opts.seconds have passed.
void RunWfsSolve(const Options& opts, RunResult* result);
void RunMagicQuery(const Options& opts, RunResult* result);
void RunServedMixed(const Options& opts, RunResult* result);

/// Writes the served_mixed base program for opts.seed to opts.out.
bool WriteServedBase(const Options& opts);

}  // namespace hlbench

#endif  // HILOG_PERFBENCH_BENCH_H_
