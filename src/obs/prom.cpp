#include "obs/prom.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>

namespace casurf::obs::prom {
namespace {

bool is_name_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}
bool is_name_char(char c) { return is_name_start(c) || (c >= '0' && c <= '9'); }

/// Registry keys may carry the slash taxonomy of the simulation probes
/// ("trial/attempts"); exposition names may not. Deterministic repair.
std::string sanitize(std::string_view base) {
  std::string out;
  out.reserve(base.size());
  for (const char c : base) out += is_name_char(c) ? c : '_';
  if (out.empty() || !is_name_start(out[0])) out.insert(out.begin(), '_');
  return out;
}

/// Split a registry key into base name and verbatim label block (the
/// `{...}` suffix series() appended, "" when unlabeled).
std::pair<std::string_view, std::string_view> split_key(std::string_view key) {
  const std::size_t brace = key.find('{');
  if (brace == std::string_view::npos) return {key, {}};
  return {key.substr(0, brace), key.substr(brace)};
}

std::string fmt_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[40];
  if (v == std::rint(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

/// `labels` is "" or "{...}"; weave one more pair into the block.
std::string with_label(std::string_view labels, std::string_view name,
                       std::string_view value) {
  std::string out;
  if (labels.empty()) {
    out += '{';
  } else {
    out.append(labels.substr(0, labels.size() - 1));
    out += ',';
  }
  out += name;
  out += "=\"";
  append_escaped_label(out, value);
  out += "\"}";
  return out;
}

struct PendingFamily {
  std::string type;
  std::vector<std::string> lines;
};

}  // namespace

void append_escaped_label(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

std::string series(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string key(base);
  if (labels.size() == 0) return key;
  key += '{';
  bool first = true;
  for (const auto& [name, value] : labels) {
    if (!first) key += ',';
    first = false;
    key += name;
    key += "=\"";
    append_escaped_label(key, value);
    key += '"';
  }
  key += '}';
  return key;
}

std::string render(const MetricsRegistry& registry) {
  // Kind order fixes who wins a sanitised-base collision (header contract).
  std::map<std::string, PendingFamily> families;
  const auto claim = [&families](std::string_view key,
                                 const char* type) -> PendingFamily* {
    PendingFamily& fam = families[sanitize(split_key(key).first)];
    if (fam.type.empty()) fam.type = type;
    return fam.type == type ? &fam : nullptr;
  };

  for (const auto& s : registry.counters()) {
    const auto [base, labels] = split_key(s.name);
    if (PendingFamily* fam = claim(s.name, "counter")) {
      fam->lines.push_back(sanitize(base) + std::string(labels) + ' ' +
                           fmt_u64(s.value));
    }
  }
  for (const auto& s : registry.gauges()) {
    const auto [base, labels] = split_key(s.name);
    if (PendingFamily* fam = claim(s.name, "gauge")) {
      fam->lines.push_back(sanitize(base) + std::string(labels) + ' ' +
                           fmt_value(s.value));
    }
  }
  for (const auto& s : registry.timers()) {
    const auto [base, labels] = split_key(s.name);
    if (PendingFamily* fam = claim(s.name, "summary")) {
      const std::string name = sanitize(base);
      fam->lines.push_back(name + "_sum" + std::string(labels) + ' ' +
                           fmt_u64(s.total_ns));
      fam->lines.push_back(name + "_count" + std::string(labels) + ' ' +
                           fmt_u64(s.count));
    }
  }
  for (const auto& s : registry.histograms()) {
    const auto [base, labels] = split_key(s.name);
    if (PendingFamily* fam = claim(s.name, "histogram")) {
      const std::string name = sanitize(base);
      std::size_t last = 0;
      for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
        if (s.buckets[b] != 0) last = b;
      }
      std::uint64_t cum = 0;
      for (std::size_t b = 0; s.count != 0 && b <= last; ++b) {
        cum += s.buckets[b];
        fam->lines.push_back(
            name + "_bucket" +
            with_label(labels, "le",
                       fmt_value(static_cast<double>(
                           Histogram::bucket_limit(b)))) +
            ' ' + fmt_u64(cum));
      }
      fam->lines.push_back(name + "_bucket" + with_label(labels, "le", "+Inf") +
                           ' ' + fmt_u64(s.count));
      fam->lines.push_back(name + "_sum" + std::string(labels) + ' ' +
                           fmt_u64(s.sum));
      fam->lines.push_back(name + "_count" + std::string(labels) + ' ' +
                           fmt_u64(s.count));
    }
  }

  std::string out;
  for (const auto& [name, fam] : families) {
    out += "# TYPE ";
    out += name;
    out += ' ';
    out += fam.type;
    out += '\n';
    for (const std::string& line : fam.lines) {
      out += line;
      out += '\n';
    }
  }
  return out;
}

namespace {

struct ParseCursor {
  std::string_view line;
  std::size_t pos = 0;
  std::size_t lineno = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("prom parse: line " + std::to_string(lineno) +
                             ": " + what);
  }
  [[nodiscard]] bool done() const { return pos >= line.size(); }
  [[nodiscard]] char peek() const { return line[pos]; }

  std::string_view take_name() {
    const std::size_t start = pos;
    while (!done() && is_name_char(peek())) ++pos;
    if (pos == start || !is_name_start(line[start])) fail("expected a name");
    return line.substr(start, pos - start);
  }

  void expect(char c, const char* what) {
    if (done() || peek() != c) fail(std::string("expected ") + what);
    ++pos;
  }

  std::string take_label_value() {
    expect('"', "'\"'");
    std::string out;
    while (!done() && peek() != '"') {
      char c = peek();
      ++pos;
      if (c == '\\') {
        if (done()) fail("dangling escape in label value");
        const char esc = peek();
        ++pos;
        if (esc == '\\' || esc == '"') {
          c = esc;
        } else if (esc == 'n') {
          c = '\n';
        } else {
          fail("invalid escape in label value");
        }
      }
      out += c;
    }
    expect('"', "closing '\"'");
    return out;
  }

  double take_value() {
    const std::string token(line.substr(pos));
    if (token.empty()) fail("missing sample value");
    if (token.find(' ') != std::string::npos) {
      fail("trailing token after value (timestamps are rejected)");
    }
    const char* begin = token.c_str();
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end != begin + token.size()) fail("bad sample value: " + token);
    pos = line.size();
    return v;
  }
};

std::string signature_without_le(const Sample& s, double* le_out) {
  std::string sig;
  bool saw_le = false;
  for (const auto& [name, value] : s.labels) {
    if (name == "le") {
      if (le_out != nullptr) {
        const char* begin = value.c_str();
        char* end = nullptr;
        *le_out = std::strtod(begin, &end);
        if (*begin == '\0' || end != begin + value.size()) {
          throw std::runtime_error("prom parse: bad le value: " + value);
        }
      }
      saw_le = true;
      continue;
    }
    sig += name;
    sig += '=';
    sig += value;
    sig += ';';
  }
  if (le_out != nullptr && !saw_le) {
    throw std::runtime_error("prom parse: _bucket sample without an le label");
  }
  return sig;
}

/// Histogram invariants checked at family close: per label set, strictly
/// ascending le, non-decreasing cumulative counts, a final +Inf bucket
/// that matches the _count sample.
void check_histogram(const Family& fam) {
  struct Group {
    std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
    double count = -1;
  };
  std::map<std::string, Group> groups;
  for (const Sample& s : fam.samples) {
    if (s.name == fam.name + "_bucket") {
      double le = 0;
      const std::string sig = signature_without_le(s, &le);
      groups[sig].buckets.emplace_back(le, s.value);
    } else if (s.name == fam.name + "_count") {
      groups[signature_without_le(s, nullptr)].count = s.value;
    }
  }
  for (const auto& [sig, g] : groups) {
    const auto bad = [&fam, &sig = sig](const std::string& what) {
      throw std::runtime_error("prom parse: histogram " + fam.name +
                               (sig.empty() ? "" : "{" + sig + "}") + ": " +
                               what);
    };
    if (g.buckets.empty()) bad("has a _count but no _bucket samples");
    double prev_le = -std::numeric_limits<double>::infinity();
    double prev_cum = 0;
    for (const auto& [le, cum] : g.buckets) {
      if (le <= prev_le) bad("le values are not strictly ascending");
      if (cum < prev_cum) bad("cumulative bucket counts decrease");
      prev_le = le;
      prev_cum = cum;
    }
    if (!std::isinf(prev_le)) bad("missing the +Inf bucket");
    if (g.count < 0) bad("missing the _count sample");
    if (g.count != prev_cum) bad("_count disagrees with the +Inf bucket");
  }
}

}  // namespace

std::vector<Family> parse(std::string_view text) {
  if (!text.empty() && text.back() != '\n') {
    throw std::runtime_error("prom parse: missing final newline");
  }
  std::vector<Family> out;
  std::set<std::string> seen;
  Family* open = nullptr;
  const auto close_open = [&out, &open] {
    if (open != nullptr && open->type == "histogram") check_histogram(*open);
    open = nullptr;
  };

  ParseCursor cur;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    cur.line = text.substr(pos, nl - pos);
    cur.pos = 0;
    ++cur.lineno;
    pos = nl + 1;

    if (cur.line.empty()) cur.fail("empty line");
    if (cur.line[0] == '#') {
      const bool is_type = cur.line.rfind("# TYPE ", 0) == 0;
      const bool is_help = cur.line.rfind("# HELP ", 0) == 0;
      if (!is_type && !is_help) cur.fail("unrecognised comment line");
      cur.pos = 7;
      const std::string name(cur.take_name());
      if (is_help) continue;  // accepted, no structural effect
      cur.expect(' ', "' '");
      const std::string_view type = cur.line.substr(cur.pos);
      if (type != "counter" && type != "gauge" && type != "histogram" &&
          type != "summary" && type != "untyped") {
        cur.fail("unknown metric type \"" + std::string(type) + '"');
      }
      close_open();
      if (!seen.insert(name).second) {
        cur.fail("family \"" + name + "\" reopened");
      }
      out.push_back(Family{name, std::string(type), {}});
      open = &out.back();
      continue;
    }

    // Sample line: name[{labels}] value
    Sample sample;
    sample.name = std::string(cur.take_name());
    if (!cur.done() && cur.peek() == '{') {
      ++cur.pos;
      while (true) {
        const std::string lname(cur.take_name());
        cur.expect('=', "'='");
        sample.labels.emplace_back(lname, cur.take_label_value());
        if (cur.done()) cur.fail("unterminated label block");
        if (cur.peek() == '}') {
          ++cur.pos;
          break;
        }
        cur.expect(',', "',' or '}'");
      }
    }
    cur.expect(' ', "' ' before the value");
    sample.value = cur.take_value();

    if (open == nullptr) cur.fail("sample before any # TYPE line");
    const bool suffixed =
        (open->type == "histogram" &&
         (sample.name == open->name + "_bucket" ||
          sample.name == open->name + "_sum" ||
          sample.name == open->name + "_count")) ||
        (open->type == "summary" && (sample.name == open->name + "_sum" ||
                                     sample.name == open->name + "_count"));
    if (sample.name != open->name && !suffixed) {
      cur.fail("sample \"" + sample.name + "\" outside family \"" +
               open->name + '"');
    }
    open->samples.push_back(std::move(sample));
  }
  close_open();
  return out;
}

double quantile(const Family& family, double q) {
  if (family.type != "histogram") {
    throw std::runtime_error("prom quantile: family " + family.name +
                             " is not a histogram");
  }
  // Convert every label set's cumulative grid to per-bucket mass keyed by
  // upper edge, merge, and re-accumulate — grids may differ per set (the
  // renderer truncates after the last occupied bucket).
  std::map<std::string, double> prev_cum;
  std::map<double, double> mass;
  for (const Sample& s : family.samples) {
    if (s.name != family.name + "_bucket") continue;
    double le = 0;
    const std::string sig = signature_without_le(s, &le);
    double& prev = prev_cum[sig];
    mass[le] += s.value - prev;
    prev = s.value;
  }
  double total = 0;
  for (const auto& [le, m] : mass) total += m;
  if (total <= 0) return 0;
  const double rank = std::min(1.0, std::max(0.0, q)) * total;
  double cum = 0;
  double prev_le = 0;
  for (const auto& [le, m] : mass) {
    const double next = cum + m;
    if (m > 0 && next >= rank) {
      if (std::isinf(le)) return prev_le;
      return prev_le + (le - prev_le) * ((rank - cum) / m);
    }
    cum = next;
    if (!std::isinf(le)) prev_le = le;
  }
  return prev_le;
}

}  // namespace casurf::obs::prom
