// Shared output helpers for the benchmark harnesses: every bench prints the
// rows/series of the paper table or figure it regenerates, in simulated
// cycles (the paper's metric).
#ifndef MK_BENCH_BENCH_UTIL_H_
#define MK_BENCH_BENCH_UTIL_H_

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "trace/export.h"
#include "trace/trace.h"

namespace mk::bench {

// Parses `text`, the value of the numeric flag `flag` (e.g. "--kill"): all
// of it must be a base-10 integer in [lo, hi]. Exits 2 naming the flag on
// anything else (empty, a sign, trailing characters, out of range).
inline std::uint64_t ParseIntFlag(const char* flag, const char* text,
                                  std::uint64_t lo, std::uint64_t hi) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
      errno == ERANGE || v < lo || v > hi) {
    std::fprintf(stderr, "bad %s value '%s' (want %llu..%llu)\n", flag, text,
                 static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    std::exit(2);
  }
  return v;
}

// --trace=<file> / --trace-categories=<list> / --trace-capacity=<n> flags,
// shared by every paper bench. A bench constructs a TraceSession from the
// parsed flags; if tracing was requested it installs a Tracer for the
// bench's lifetime and writes the Perfetto JSON (plus a text summary on
// stdout) at scope exit.
struct TraceFlags {
  std::string path;                                    // empty = tracing off
  std::uint32_t mask = trace::kAllCategories;
  std::size_t capacity = trace::Tracer::kDefaultCapacity;
};

// Consumes the trace flags from argv (compacting it) so benches keep their
// own argument handling. Exits with a usage message on a malformed flag.
inline TraceFlags ParseTraceFlags(int& argc, char** argv) {
  TraceFlags flags;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace=", 8) == 0) {
      flags.path = arg + 8;
    } else if (std::strncmp(arg, "--trace-categories=", 19) == 0) {
      if (!trace::ParseCategoryList(arg + 19, &flags.mask)) {
        std::fprintf(stderr, "unknown trace category in '%s' (known:", arg + 19);
        for (std::size_t c = 0; c < trace::kNumCategories; ++c) {
          std::fprintf(stderr, " %s",
                       trace::CategoryName(static_cast<trace::Category>(c)));
        }
        std::fprintf(stderr, ")\n");
        std::exit(2);
      }
    } else if (std::strncmp(arg, "--trace-capacity=", 17) == 0) {
      flags.capacity = ParseIntFlag("--trace-capacity", arg + 17, 1, std::size_t{1} << 24);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return flags;
}

// Consumes --threads=<n> from argv (compacting it). Every paper bench
// accepts the flag so the golden gate can be re-run at any host thread
// count; the paper benches simulate one machine — a single engine domain —
// whose schedule is host-thread-invariant by construction, so the flag
// cannot change their output (that invariance is exactly what the gate
// verifies). Multi-domain benches (par_speedup) use the value to size the
// worker pool. Exits with a usage message on a malformed value.
inline int ParseThreadsFlag(int& argc, char** argv, int def = 1) {
  int threads = def;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      threads = static_cast<int>(ParseIntFlag("--threads", arg + 10, 1, 1024));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return threads;
}

// Consumes --machines=<n> from argv (compacting it): the rack-topology size.
// For rack_serving this is the number of backend machines; par_speedup
// treats it as an alias for --domains so run scripts can forward one flag
// everywhere. No single-machine bench calls it: most ignore --machines
// silently, and the ones that check their arguments (sec54_failover,
// store_readwrite, conn_scale) reject it as unknown. Exits with a usage
// message on a malformed value.
inline int ParseMachinesFlag(int& argc, char** argv, int def = 1) {
  int machines = def;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--machines=", 11) == 0) {
      machines = static_cast<int>(ParseIntFlag("--machines", arg + 11, 1, 61));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return machines;
}

// RAII trace scope for a bench run. Inactive (and free) when no --trace flag
// was given.
class TraceSession {
 public:
  explicit TraceSession(const TraceFlags& flags) : path_(flags.path) {
    if (!path_.empty()) {
      tracer_ = std::make_unique<trace::Tracer>(flags.capacity, flags.mask);
      tracer_->Install();
    }
  }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  ~TraceSession() {
    if (tracer_ == nullptr) {
      return;
    }
    tracer_->Uninstall();
    if (trace::WritePerfettoJson(*tracer_, path_)) {
      std::printf("\ntrace written to %s (open in ui.perfetto.dev)\n", path_.c_str());
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n", path_.c_str());
    }
    trace::PrintSummary(*tracer_, std::cout);
  }

  bool active() const { return tracer_ != nullptr; }
  trace::Tracer* tracer() { return tracer_.get(); }

  // Labels the records that follow (each label becomes its own Perfetto
  // process group, keeping re-run executors' restarted clocks apart).
  void BeginRun(const std::string& name) {
    if (tracer_ != nullptr) {
      tracer_->BeginRun(name);
    }
  }

 private:
  std::string path_;
  std::unique_ptr<trace::Tracer> tracer_;
};

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// A column-oriented series table: first column is the x axis (e.g. cores),
// remaining columns are named series. Mirrors the paper's figures.
class SeriesTable {
 public:
  explicit SeriesTable(std::string x_name) : x_name_(std::move(x_name)) {}

  void AddSeries(std::string name) { series_names_.push_back(std::move(name)); }

  void AddRow(double x, std::vector<double> values) {
    rows_.push_back({x, std::move(values)});
  }

  void Print(const char* fmt = "%12.1f") const {
    std::printf("%10s", x_name_.c_str());
    for (const auto& n : series_names_) {
      std::printf("%14s", n.c_str());
    }
    std::printf("\n");
    for (const auto& r : rows_) {
      std::printf("%10.0f", r.x);
      for (double v : r.values) {
        std::printf("  ");
        std::printf(fmt, v);
      }
      std::printf("\n");
    }
  }

 private:
  struct Row {
    double x;
    std::vector<double> values;
  };
  std::string x_name_;
  std::vector<std::string> series_names_;
  std::vector<Row> rows_;
};

// Open-loop load shapes for arrival-rate schedules: given a phase position,
// return the instantaneous offered rate as a fraction of the shape's peak in
// parts-per-1024. Pure integer arithmetic (no libm) so every platform and
// thread count computes bit-identical schedules.
//   kSteady  — flat at peak.
//   kBursty  — square wave: peak for the first third of each period, 1/4
//              peak for the rest (connection churn storms arrive like this).
//   kDiurnal — triangle wave approximating a day's ramp-up/ramp-down.
enum class LoadShape { kSteady, kBursty, kDiurnal };

// `pos` and `period` are in any consistent unit (cycles, slots); the result
// is in [0, 1024] with 1024 = peak rate.
inline std::uint64_t LoadShapeLevel(LoadShape shape, std::uint64_t pos,
                                    std::uint64_t period) {
  if (period == 0) {
    return 1024;
  }
  std::uint64_t p = pos % period;
  switch (shape) {
    case LoadShape::kSteady:
      return 1024;
    case LoadShape::kBursty:
      return p < period / 3 ? 1024 : 256;
    case LoadShape::kDiurnal: {
      // Triangle: 0 at the period edges, 1024 at the midpoint.
      std::uint64_t half = period / 2;
      std::uint64_t up = p <= half ? p : period - p;
      return half == 0 ? 1024 : (up * 1024) / half;
    }
  }
  return 1024;
}

}  // namespace mk::bench

#endif  // MK_BENCH_BENCH_UTIL_H_
