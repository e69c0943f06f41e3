#include "common/trace_assemble.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <utility>

namespace glider::obs {

// ---- clock alignment --------------------------------------------------------

void ClockOffsetEstimator::AddSample(const ClockSample& sample) {
  const std::uint64_t rtt =
      sample.recv_us > sample.send_us ? sample.recv_us - sample.send_us : 0;
  if (samples_ > 0 && rtt >= min_rtt_us_) {
    ++samples_;
    return;
  }
  // Midpoint estimate: the reply was stamped (assumed) halfway through the
  // round trip. Smallest RTT wins: it has the tightest error bound.
  const std::int64_t midpoint =
      static_cast<std::int64_t>(sample.send_us) +
      static_cast<std::int64_t>(rtt) / 2;
  offset_us_ = static_cast<std::int64_t>(sample.remote_us) - midpoint;
  min_rtt_us_ = rtt;
  ++samples_;
}

// ---- Chrome trace-event JSON parsing ----------------------------------------
//
// A minimal recursive-descent parser for the exact dialect
// TraceRecorder::ToChromeJson() emits (plus the metadata rows ToPerfettoJson
// adds). Unknown keys are skipped structurally, so args can grow.

namespace {

const char* InternCategory(const std::string& category) {
  static std::mutex mu;
  static std::set<std::string>* pool = new std::set<std::string>();
  std::scoped_lock lock(mu);
  return pool->insert(category).first->c_str();
}

struct Cursor {
  const char* p;
  const char* end;

  bool AtEnd() const { return p >= end; }
  void SkipWs() {
    while (p < end &&
           (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  char Peek() {
    SkipWs();
    return p < end ? *p : '\0';
  }
};

Status ParseError(const char* what) {
  return Status::InvalidArgument(std::string("trace json: ") + what);
}

Status ParseString(Cursor& c, std::string& out) {
  if (!c.Consume('"')) return ParseError("expected string");
  out.clear();
  while (!c.AtEnd() && *c.p != '"') {
    char ch = *c.p++;
    if (ch != '\\') {
      out.push_back(ch);
      continue;
    }
    if (c.AtEnd()) return ParseError("dangling escape");
    char esc = *c.p++;
    switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        if (c.end - c.p < 4) return ParseError("truncated \\u escape");
        char hex[5] = {c.p[0], c.p[1], c.p[2], c.p[3], 0};
        c.p += 4;
        const unsigned cp =
            static_cast<unsigned>(std::strtoul(hex, nullptr, 16));
        // BMP-only UTF-8 encode (the recorder never emits \u itself).
        if (cp < 0x80) {
          out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
          out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
          out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
          out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
        break;
      }
      default:
        return ParseError("unknown escape");
    }
  }
  if (!c.Consume('"')) return ParseError("unterminated string");
  return Status::Ok();
}

Status ParseNumber(Cursor& c, double& out) {
  c.SkipWs();
  char* end = nullptr;
  out = std::strtod(c.p, &end);
  if (end == c.p) return ParseError("expected number");
  c.p = end;
  return Status::Ok();
}

Status SkipValue(Cursor& c);

Status SkipObjectOrArray(Cursor& c, char open, char close) {
  if (!c.Consume(open)) return ParseError("expected { or [");
  if (c.Consume(close)) return Status::Ok();
  while (true) {
    if (open == '{') {
      std::string key;
      GLIDER_RETURN_IF_ERROR(ParseString(c, key));
      if (!c.Consume(':')) return ParseError("expected ':'");
    }
    GLIDER_RETURN_IF_ERROR(SkipValue(c));
    if (c.Consume(',')) continue;
    if (c.Consume(close)) return Status::Ok();
    return ParseError("expected ',' or closer");
  }
}

Status SkipValue(Cursor& c) {
  switch (c.Peek()) {
    case '"': {
      std::string s;
      return ParseString(c, s);
    }
    case '{':
      return SkipObjectOrArray(c, '{', '}');
    case '[':
      return SkipObjectOrArray(c, '[', ']');
    case 't':
    case 'f':
    case 'n': {
      while (!c.AtEnd() && (std::isalpha(static_cast<unsigned char>(*c.p)))) {
        ++c.p;
      }
      return Status::Ok();
    }
    default: {
      double d;
      return ParseNumber(c, d);
    }
  }
}

std::uint64_t HexId(const std::string& text) {
  return std::strtoull(text.c_str(), nullptr, 16);
}

// One element of "traceEvents". Returns an empty optional for events that
// are not complete ("X") spans — metadata rows in merged files.
Status ParseEvent(Cursor& c, std::optional<SpanRecord>& out) {
  out.reset();
  if (!c.Consume('{')) return ParseError("expected event object");
  SpanRecord span;
  std::string ph = "X";
  bool have_args = false;
  if (!c.Consume('}')) {
    while (true) {
      std::string key;
      GLIDER_RETURN_IF_ERROR(ParseString(c, key));
      if (!c.Consume(':')) return ParseError("expected ':'");
      if (key == "name") {
        GLIDER_RETURN_IF_ERROR(ParseString(c, span.name));
      } else if (key == "cat") {
        std::string cat;
        GLIDER_RETURN_IF_ERROR(ParseString(c, cat));
        span.category = InternCategory(cat);
      } else if (key == "ph") {
        GLIDER_RETURN_IF_ERROR(ParseString(c, ph));
      } else if (key == "ts" || key == "dur" || key == "tid") {
        double v;
        GLIDER_RETURN_IF_ERROR(ParseNumber(c, v));
        if (v < 0) v = 0;
        if (key == "ts") span.start_us = static_cast<std::uint64_t>(v);
        if (key == "dur") span.dur_us = static_cast<std::uint64_t>(v);
        if (key == "tid") span.tid = static_cast<std::uint32_t>(v);
      } else if (key == "args") {
        have_args = true;
        if (!c.Consume('{')) return ParseError("expected args object");
        if (!c.Consume('}')) {
          while (true) {
            std::string akey;
            GLIDER_RETURN_IF_ERROR(ParseString(c, akey));
            if (!c.Consume(':')) return ParseError("expected ':'");
            if (akey == "trace_id" || akey == "span_id" ||
                akey == "parent_span_id") {
              std::string hex;
              GLIDER_RETURN_IF_ERROR(ParseString(c, hex));
              const std::uint64_t id = HexId(hex);
              if (akey == "trace_id") span.trace_id = id;
              if (akey == "span_id") span.span_id = id;
              if (akey == "parent_span_id") span.parent_span_id = id;
            } else {
              GLIDER_RETURN_IF_ERROR(SkipValue(c));
            }
            if (c.Consume(',')) continue;
            if (c.Consume('}')) break;
            return ParseError("expected ',' or '}' in args");
          }
        }
      } else {
        GLIDER_RETURN_IF_ERROR(SkipValue(c));
      }
      if (c.Consume(',')) continue;
      if (c.Consume('}')) break;
      return ParseError("expected ',' or '}' in event");
    }
  }
  if (ph == "X" && have_args && span.trace_id != 0) out = std::move(span);
  return Status::Ok();
}

}  // namespace

Result<std::vector<SpanRecord>> ParseChromeTraceJson(std::string_view json) {
  Cursor c{json.data(), json.data() + json.size()};
  std::vector<SpanRecord> spans;
  if (!c.Consume('{')) return ParseError("expected top-level object");
  if (c.Consume('}')) return spans;
  while (true) {
    std::string key;
    GLIDER_RETURN_IF_ERROR(ParseString(c, key));
    if (!c.Consume(':')) return ParseError("expected ':'");
    if (key == "traceEvents") {
      if (!c.Consume('[')) return ParseError("expected traceEvents array");
      if (!c.Consume(']')) {
        while (true) {
          std::optional<SpanRecord> span;
          GLIDER_RETURN_IF_ERROR(ParseEvent(c, span));
          if (span) spans.push_back(std::move(*span));
          if (c.Consume(',')) continue;
          if (c.Consume(']')) break;
          return ParseError("expected ',' or ']' in traceEvents");
        }
      }
    } else {
      GLIDER_RETURN_IF_ERROR(SkipValue(c));
    }
    if (c.Consume(',')) continue;
    if (c.Consume('}')) break;
    return ParseError("expected ',' or '}' at top level");
  }
  return spans;
}

// ---- assembly ---------------------------------------------------------------

void TraceAssembler::AddSpans(const std::string& node,
                              std::vector<SpanRecord> spans,
                              std::optional<std::int64_t> offset_us) {
  NodeDump dump;
  dump.node = node;
  dump.spans = std::move(spans);
  dump.offset_us = offset_us;
  dumps_.push_back(std::move(dump));
}

const char* TraceAssembler::BucketFor(std::string_view name) {
  const auto starts = [&](std::string_view prefix) {
    return name.size() >= prefix.size() &&
           name.substr(0, prefix.size()) == prefix;
  };
  const auto ends = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.substr(name.size() - suffix.size()) == suffix;
  };
  if (starts("rpc.")) return "net";
  if (starts("handle.") || starts("meta.") || starts("storage.")) {
    return "server";
  }
  if (starts("action.")) {
    if (ends(".queue")) return "queue";
    return "run";
  }
  if (starts("channel.")) return "channel";
  // Roots (load.* / cli.* / faas.*), synthetic roots, and anything
  // unrecognized: time on the requester's side of the boundary.
  return "client";
}

namespace {

// A span mid-flight through assembly: raw record + aligned interval on the
// reference timebase (signed: a node that booted later than the reference
// can own spans that align to negative instants before normalization).
struct AlignedSpan {
  const SpanRecord* raw = nullptr;
  std::size_t dump = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

std::int64_t Midpoint(const SpanRecord& s) {
  return static_cast<std::int64_t>(s.start_us) +
         static_cast<std::int64_t>(s.dur_us) / 2;
}

// Builds one AssembledTrace from this trace's aligned spans (already
// deduped), `base` being the global normalization shift.
AssembledTrace BuildTrace(std::uint64_t trace_id,
                          std::vector<AlignedSpan> spans,
                          const std::vector<std::string>& dump_names,
                          std::int64_t base) {
  AssembledTrace trace;
  trace.trace_id = trace_id;

  trace.spans.reserve(spans.size() + 1);
  std::map<std::uint64_t, std::size_t> by_id;
  std::int64_t min_start = 0, max_end = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const AlignedSpan& a = spans[i];
    AssembledSpan out;
    out.span = *a.raw;
    out.span.start_us = static_cast<std::uint64_t>(a.start - base);
    out.span.dur_us = static_cast<std::uint64_t>(
        a.end > a.start ? a.end - a.start : 0);
    out.node = dump_names[a.dump];
    trace.spans.push_back(std::move(out));
    by_id[a.raw->span_id] = i;
    if (i == 0 || a.start < min_start) min_start = a.start;
    if (i == 0 || a.end > max_end) max_end = a.end;
  }

  // Parent links; tops = spans with no resolvable parent in this trace.
  std::vector<std::size_t> tops;
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    AssembledSpan& s = trace.spans[i];
    if (s.span.parent_span_id != 0) {
      auto it = by_id.find(s.span.parent_span_id);
      if (it != by_id.end() && it->second != i) {
        s.parent = it->second;
        continue;
      }
      ++trace.orphans;  // parent lived in a process we never dumped
    }
    tops.push_back(i);
  }

  if (tops.size() == 1) {
    trace.root = tops[0];
  } else {
    // Orphan forest (the client process was never dumped): graft every top
    // under a synthetic root spanning the forest, so the critical path and
    // bucket sums stay well-defined. The uncovered gaps become "client"
    // time — the trace's time outside any recorded server span.
    AssembledSpan root;
    root.span.name = "(assembled)";
    root.span.category = "assembled";
    root.span.trace_id = trace_id;
    root.span.span_id = 0;
    root.span.start_us = static_cast<std::uint64_t>(min_start - base);
    root.span.dur_us =
        static_cast<std::uint64_t>(max_end > min_start ? max_end - min_start
                                                       : 0);
    root.synthetic = true;
    trace.root = trace.spans.size();
    trace.spans.push_back(std::move(root));
  }
  for (const std::size_t top : tops) {
    if (top != trace.root) trace.spans[top].parent = trace.root;
  }
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    if (i != trace.root) {
      trace.spans[trace.spans[i].parent].children.push_back(i);
    }
  }
  for (AssembledSpan& s : trace.spans) {
    std::sort(s.children.begin(), s.children.end(),
              [&](std::size_t a, std::size_t b) {
                return trace.spans[a].span.start_us <
                       trace.spans[b].span.start_us;
              });
  }

  // Depth + clamping, breadth-first from the root. A child recorded on
  // another node than its parent is confined to the parent's window, so
  // residual clock error cannot make the critical path run backwards. A
  // child on its parent's node shares its clock, and may truly outlive it:
  // an action's run span starts under the stream open that submitted it and
  // runs on through the client's writes and close. It is confined to the
  // root's window only, so that time is charged to the run.
  const std::uint64_t root_lo = trace.spans[trace.root].span.start_us;
  const std::uint64_t root_hi =
      root_lo + trace.spans[trace.root].span.dur_us;
  trace.spans[trace.root].clamp_start_us = root_lo;
  trace.spans[trace.root].clamp_end_us = root_hi;
  std::vector<std::size_t> order{trace.root};
  for (std::size_t qi = 0; qi < order.size(); ++qi) {
    const std::size_t idx = order[qi];
    // Copy the parent's fields: the child loop writes sibling entries of
    // the same vector.
    const std::uint64_t plo = trace.spans[idx].clamp_start_us;
    const std::uint64_t phi = trace.spans[idx].clamp_end_us;
    const std::size_t pdepth = trace.spans[idx].depth;
    const std::string pnode = trace.spans[idx].node;
    for (const std::size_t child : trace.spans[idx].children) {
      AssembledSpan& c = trace.spans[child];
      c.depth = pdepth + 1;
      const bool same_node = !c.node.empty() && c.node == pnode;
      const std::uint64_t lo = same_node ? root_lo : plo;
      const std::uint64_t hi = same_node ? root_hi : phi;
      const std::uint64_t s = c.span.start_us;
      const std::uint64_t e = c.span.start_us + c.span.dur_us;
      c.clamp_start_us = std::clamp(s, lo, hi);
      c.clamp_end_us = std::clamp(e, c.clamp_start_us, hi);
      order.push_back(child);
    }
  }

  // Blocking critical path: sweep the root window; each elementary interval
  // is charged to the deepest covering span (ties: the most recently
  // started, then the later-added). The segments partition the window, so
  // bucket sums equal the end-to-end duration exactly.
  const std::uint64_t rlo = trace.spans[trace.root].clamp_start_us;
  const std::uint64_t rhi = trace.spans[trace.root].clamp_end_us;
  trace.start_us = rlo;
  trace.total_us = rhi - rlo;
  std::vector<std::uint64_t> bounds;
  bounds.reserve(trace.spans.size() * 2);
  for (const AssembledSpan& s : trace.spans) {
    if (s.clamp_end_us > s.clamp_start_us) {
      bounds.push_back(s.clamp_start_us);
      bounds.push_back(s.clamp_end_us);
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    const std::uint64_t lo = bounds[b], hi = bounds[b + 1];
    if (lo < rlo || hi > rhi || hi <= lo) continue;
    std::size_t best = trace.root;
    for (std::size_t i = 0; i < trace.spans.size(); ++i) {
      const AssembledSpan& s = trace.spans[i];
      if (s.clamp_start_us > lo || s.clamp_end_us < hi ||
          s.clamp_end_us <= s.clamp_start_us) {
        continue;
      }
      const AssembledSpan& cur = trace.spans[best];
      if (s.depth > cur.depth ||
          (s.depth == cur.depth &&
           (s.clamp_start_us > cur.clamp_start_us ||
            (s.clamp_start_us == cur.clamp_start_us && i > best)))) {
        best = i;
      }
    }
    const char* bucket = trace.spans[best].synthetic
                             ? "client"
                             : TraceAssembler::BucketFor(
                                   trace.spans[best].span.name);
    if (!trace.critical_path.empty() &&
        trace.critical_path.back().span == best &&
        trace.critical_path.back().end_us == lo) {
      trace.critical_path.back().end_us = hi;
    } else {
      trace.critical_path.push_back(CriticalSegment{best, lo, hi, bucket});
    }
    trace.bucket_us[bucket] += hi - lo;
  }

  std::set<std::string> nodes;
  for (const AssembledSpan& s : trace.spans) {
    if (!s.node.empty()) nodes.insert(s.node);
  }
  trace.nodes = nodes.size();
  return trace;
}

}  // namespace

std::vector<AssembledTrace> TraceAssembler::Assemble() {
  node_offsets_.clear();
  unaligned_nodes_.clear();

  // 1. Resolve per-dump offsets. Explicit offsets (RTT-midpoint sampled)
  // win; dumps without one are aligned causally: a cross-dump parent-child
  // span pair must overlap in real time, so the median midpoint delta over
  // all such pairs estimates (this dump's clock - reference clock). When
  // nothing has an explicit offset, the first dump anchors the reference.
  std::vector<std::optional<std::int64_t>> offsets(dumps_.size());
  bool any_explicit = false;
  for (std::size_t d = 0; d < dumps_.size(); ++d) {
    if (dumps_[d].offset_us) {
      offsets[d] = *dumps_[d].offset_us;
      any_explicit = true;
    }
  }
  if (!any_explicit && !dumps_.empty()) offsets[0] = 0;

  // Span index across dumps: (trace_id, span_id) -> (dump, record).
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::pair<std::size_t, const SpanRecord*>>
      by_id;
  for (std::size_t d = 0; d < dumps_.size(); ++d) {
    for (const SpanRecord& s : dumps_[d].spans) {
      by_id.try_emplace({s.trace_id, s.span_id}, d, &s);
    }
  }

  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t d = 0; d < dumps_.size(); ++d) {
      if (offsets[d]) continue;
      std::vector<std::int64_t> deltas;
      for (const SpanRecord& s : dumps_[d].spans) {
        // This span's parent on an aligned dump...
        if (s.parent_span_id != 0) {
          auto it = by_id.find({s.trace_id, s.parent_span_id});
          if (it != by_id.end() && it->second.first != d &&
              offsets[it->second.first]) {
            const std::int64_t parent_mid = Midpoint(*it->second.second) -
                                            *offsets[it->second.first];
            deltas.push_back(Midpoint(s) - parent_mid);
          }
        }
      }
      for (std::size_t od = 0; od < dumps_.size(); ++od) {
        // ...or children of this span on an aligned dump.
        if (od == d || !offsets[od]) continue;
        for (const SpanRecord& child : dumps_[od].spans) {
          if (child.parent_span_id == 0) continue;
          auto it = by_id.find({child.trace_id, child.parent_span_id});
          if (it != by_id.end() && it->second.first == d) {
            const std::int64_t child_mid = Midpoint(child) - *offsets[od];
            deltas.push_back(Midpoint(*it->second.second) - child_mid);
          }
        }
      }
      if (deltas.empty()) continue;
      std::nth_element(deltas.begin(), deltas.begin() + deltas.size() / 2,
                       deltas.end());
      offsets[d] = deltas[deltas.size() / 2];
      progressed = true;
    }
  }
  for (std::size_t d = 0; d < dumps_.size(); ++d) {
    if (!offsets[d]) {
      offsets[d] = 0;
      unaligned_nodes_.push_back(dumps_[d].node);
    }
    node_offsets_[dumps_[d].node] = *offsets[d];
  }

  // 2. Rebase + group by trace, deduping span ids (MiniCluster-style
  // deployments can serve one recorder behind several addresses).
  std::map<std::uint64_t, std::vector<AlignedSpan>> by_trace;
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  std::int64_t base = 0;
  bool have_base = false;
  for (std::size_t d = 0; d < dumps_.size(); ++d) {
    for (const SpanRecord& s : dumps_[d].spans) {
      if (s.trace_id == 0) continue;
      if (!seen.insert({s.trace_id, s.span_id}).second) continue;
      AlignedSpan a;
      a.raw = &s;
      a.dump = d;
      a.start = static_cast<std::int64_t>(s.start_us) - *offsets[d];
      a.end = a.start + static_cast<std::int64_t>(s.dur_us);
      if (!have_base || a.start < base) {
        base = a.start;
        have_base = true;
      }
      by_trace[s.trace_id].push_back(a);
    }
  }

  std::vector<std::string> dump_names;
  dump_names.reserve(dumps_.size());
  for (const NodeDump& dump : dumps_) dump_names.push_back(dump.node);

  std::vector<AssembledTrace> traces;
  traces.reserve(by_trace.size());
  for (auto& [trace_id, spans] : by_trace) {
    traces.push_back(BuildTrace(trace_id, std::move(spans), dump_names, base));
  }
  std::sort(traces.begin(), traces.end(),
            [](const AssembledTrace& a, const AssembledTrace& b) {
              return a.start_us < b.start_us;
            });
  return traces;
}

// ---- export -----------------------------------------------------------------

namespace {

void AppendEscaped(std::string& out, std::string_view text) {
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace

std::string ToPerfettoJson(const std::vector<AssembledTrace>& traces) {
  // One pid per source node: Perfetto renders each pid as its own
  // process-named track group, so the merged view reads node-by-node.
  std::map<std::string, int> pids;
  for (const AssembledTrace& trace : traces) {
    for (const AssembledSpan& s : trace.spans) {
      const std::string& node = s.synthetic ? "(assembled)" : s.node;
      pids.try_emplace(node.empty() ? "(unknown)" : node,
                       static_cast<int>(pids.size() + 1));
    }
  }

  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const auto& [node, pid] : pids) {
    if (!first) out.push_back(',');
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"args\":{\"name\":\"",
                  pid);
    out += buf;
    AppendEscaped(out, node);
    out += "\"}}";
  }
  for (const AssembledTrace& trace : traces) {
    for (const AssembledSpan& s : trace.spans) {
      const std::string& node = s.synthetic ? "(assembled)" : s.node;
      const int pid = pids.at(node.empty() ? "(unknown)" : node);
      if (!first) out.push_back(',');
      first = false;
      out += "{\"name\":\"";
      AppendEscaped(out, s.span.name);
      std::snprintf(buf, sizeof(buf),
                    "\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%" PRIu64
                    ",\"dur\":%" PRIu64 ",\"pid\":%d,\"tid\":%u,"
                    "\"args\":{\"trace_id\":\"%" PRIx64
                    "\",\"span_id\":\"%" PRIx64
                    "\",\"parent_span_id\":\"%" PRIx64 "\",\"node\":\"",
                    s.span.category, s.span.start_us, s.span.dur_us, pid,
                    s.span.tid, s.span.trace_id, s.span.span_id,
                    s.span.parent_span_id);
      out += buf;
      AppendEscaped(out, node);
      out += "\",\"bucket\":\"";
      out += s.synthetic ? "client" : TraceAssembler::BucketFor(s.span.name);
      out += "\"}}";
    }
  }
  out += "]}";
  return out;
}

double PercentileUs(std::vector<std::uint64_t> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  if (idx > 0) --idx;
  if (idx >= values.size()) idx = values.size() - 1;
  return static_cast<double>(values[idx]);
}

}  // namespace glider::obs
