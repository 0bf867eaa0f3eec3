#include "util/failpoint.hpp"

#include <cerrno>
#include <cstdlib>
#include <mutex>

#include "rng/counter_rng.hpp"

namespace casurf::fail {

namespace {

struct ParsedTerm {
  std::string name;
  bool probabilistic = false;  // false: hit@N, true: prob@P
  std::uint64_t hit = 0;       // 1-based evaluation index to fire on
  double prob = 0;
};

/// Grammar: SPEC := TERM ("," TERM)*; TERM := NAME "=" ("hit@" N | "prob@" P)
/// with N a positive integer and P a probability in [0, 1]. NAME is any
/// nonempty string without "=" or "," (the wired sites use the slash
/// taxonomy of the metrics probes, e.g. "io/atomic_write/fsync").
std::string parse_spec(const std::string& spec, std::vector<ParsedTerm>& out) {
  if (!spec.empty() && spec.back() == ',') {
    return "empty failpoint term (trailing comma)";
  }
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string term = spec.substr(pos, end - pos);
    pos = end + 1;
    if (term.empty()) return "empty failpoint term (stray comma?)";

    const std::size_t eq = term.find('=');
    if (eq == std::string::npos || eq == 0) {
      return "failpoint term '" + term + "' is not NAME=hit@N or NAME=prob@P";
    }
    ParsedTerm t;
    t.name = term.substr(0, eq);
    const std::string trigger = term.substr(eq + 1);
    const auto parse_arg = [&](const char* prefix) -> const char* {
      const std::size_t n = std::char_traits<char>::length(prefix);
      return trigger.compare(0, n, prefix) == 0 ? trigger.c_str() + n : nullptr;
    };
    if (const char* arg = parse_arg("hit@")) {
      errno = 0;
      char* tail = nullptr;
      const unsigned long long n = std::strtoull(arg, &tail, 10);
      if (tail == arg || *tail != '\0' || errno == ERANGE || n == 0 || *arg == '-') {
        return "failpoint '" + t.name + "': hit@ expects a positive integer, got '" +
               arg + "'";
      }
      t.hit = n;
    } else if (const char* parg = parse_arg("prob@")) {
      errno = 0;
      char* tail = nullptr;
      const double p = std::strtod(parg, &tail);
      if (tail == parg || *tail != '\0' || errno == ERANGE || !(p >= 0) || !(p <= 1)) {
        return "failpoint '" + t.name +
               "': prob@ expects a probability in [0, 1], got '" + parg + "'";
      }
      t.probabilistic = true;
      t.prob = p;
    } else {
      return "failpoint '" + t.name + "': unknown trigger '" + trigger +
             "' (expected hit@N or prob@P)";
    }
    out.push_back(std::move(t));
  }
  return {};
}

/// FNV-1a, used instead of std::hash so the prob@P streams are identical
/// across processes and library versions (replayability is the point).
std::uint64_t name_hash(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Entry {
  ParsedTerm term;
  std::uint64_t stream_base = 0;  // CounterRng stream of this failpoint
  std::uint64_t evaluations = 0;
  std::uint64_t fires = 0;
};

struct Registry {
  std::mutex mutex;
  std::vector<Entry> entries;
  std::uint64_t seed = 0;
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

std::string validate(const std::string& spec) {
  std::vector<ParsedTerm> terms;
  return parse_spec(spec, terms);
}

std::string configure(const std::string& spec) {
  std::vector<ParsedTerm> terms;
  if (std::string err = parse_spec(spec, terms); !err.empty()) return err;
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  r.entries.clear();
  for (ParsedTerm& t : terms) {
    Entry e;
    e.stream_base = CounterRng::stream_base(r.seed, name_hash(t.name));
    e.term = std::move(t);
    r.entries.push_back(std::move(e));
  }
  detail::g_armed.store(static_cast<int>(r.entries.size()),
                        std::memory_order_relaxed);
  return {};
}

void set_seed(std::uint64_t seed) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  r.seed = seed;
  for (Entry& e : r.entries) {
    e.stream_base = CounterRng::stream_base(seed, name_hash(e.term.name));
  }
}

void reset() {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  r.entries.clear();
  detail::g_armed.store(0, std::memory_order_relaxed);
}

std::vector<std::string> armed_names() {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  std::vector<std::string> names;
  names.reserve(r.entries.size());
  for (const Entry& e : r.entries) names.push_back(e.term.name);
  return names;
}

std::uint64_t evaluations(const std::string& name) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  for (const Entry& e : r.entries) {
    if (e.term.name == name) return e.evaluations;
  }
  return 0;
}

std::uint64_t fires(const std::string& name) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  for (const Entry& e : r.entries) {
    if (e.term.name == name) return e.fires;
  }
  return 0;
}

namespace detail {

std::atomic<int> g_armed{0};

bool should_fail(const char* name) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  for (Entry& e : r.entries) {
    if (e.term.name != name) continue;
    const std::uint64_t n = ++e.evaluations;
    bool fires_now;
    if (e.term.probabilistic) {
      // The n-th evaluation's draw is a pure function of (seed, name, n):
      // the firing pattern replays exactly for a fixed seed and spec.
      fires_now = CounterRng::to_unit(CounterRng::nth(e.stream_base, n)) <
                  e.term.prob;
    } else {
      fires_now = n == e.term.hit;
    }
    if (fires_now) ++e.fires;
    return fires_now;
  }
  return false;
}

}  // namespace detail

}  // namespace casurf::fail
