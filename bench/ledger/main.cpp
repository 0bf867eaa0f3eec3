// casurf_ledger — wall-clock and accuracy benchmark of casurf_run.
//
//   casurf_ledger --workload zgb-500 [--seed 3] [--seconds 35] [--trace 0|1]
//                 [--append FILE]
//   casurf_ledger --compare OLD.json NEW.json
//
// The last stdout line of a run is one JSON object: correct, attempted,
// failed and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1). See README.md in this directory.

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>

#include "ledger.hpp"

namespace {

[[noreturn]] void usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: casurf_ledger --workload NAME [--seed S] [--seconds T] "
               "[--trace 0|1] [--append FILE]\n"
               "       casurf_ledger --compare OLD.json NEW.json\n"
               "workloads:",
               error);
  for (const ledger::Workload& w : ledger::workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

double number(std::string_view flag, const char* v) {
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (end == v || *end != '\0' || !(d >= 0) || !std::isfinite(d)) {
    usage((std::string(flag) + " expects a non-negative number").c_str());
  }
  return d;
}

std::uint64_t whole(std::string_view flag, const char* v) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || v[0] == '-') {
    usage((std::string(flag) + " expects a non-negative whole number").c_str());
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  ledger::RunArgs args;
  args.casurf_run = CASURF_RUN_EXE;
  args.out_dir = LEDGER_OUT_DIR;
  bool traced = false;
  std::string compare_old, compare_new;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage((std::string(flag) + " needs a value").c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      const char* name = value();
      args.workload = ledger::find_workload(name);
      if (args.workload == nullptr) usage((std::string("unknown workload ") + name).c_str());
    } else if (flag == "--seed") {
      args.seed = whole(flag, value());
    } else if (flag == "--seconds") {
      args.seconds = number(flag, value());
    } else if (flag == "--trace") {
      const std::string_view v = value();
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
      traced = v == "1";
    } else if (flag == "--append") {
      args.append = value();
    } else if (flag == "--compare") {
      compare_old = value();
      compare_new = value();
    } else {
      usage((std::string("unknown flag ") + std::string(flag)).c_str());
    }
  }

  try {
    if (!compare_old.empty()) {
      return ledger::run_compare(compare_old, compare_new, LEDGER_BENCHMARK_JSON);
    }
    if (args.workload == nullptr) usage("--workload is required");
    std::filesystem::create_directories(args.out_dir);
    const ledger::RunResult r = traced ? ledger::run_traced(args) : ledger::run_e2e(args);
    ledger::save_result(r, args.out_dir + "/" + r.workload + (traced ? ".layers.json" : ".json"),
                        args.append);
    ledger::print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "casurf_ledger: %s\n", e.what());
    return 1;
  }
}
