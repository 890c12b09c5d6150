#include "src/obs/ts.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "src/obs/flight.h"
#include "src/obs/json.h"
#include "src/obs/json_parse.h"
#include "src/obs/span.h"

namespace pvm::ts {

namespace {

void appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out->append(buf, static_cast<std::size_t>(n) < sizeof(buf)
                         ? static_cast<std::size_t>(n)
                         : sizeof(buf) - 1);
  }
}

// Deterministic human-readable duration ("842ns", "13.4us", "8.92ms",
// "1.250s"). Fixed printf formats, no locale.
std::string format_ns(std::uint64_t ns) {
  std::string out;
  if (ns < 1000) {
    appendf(&out, "%lluns", static_cast<unsigned long long>(ns));
  } else if (ns < 1000 * 1000) {
    appendf(&out, "%.1fus", static_cast<double>(ns) / 1e3);
  } else if (ns < 1000ull * 1000 * 1000) {
    appendf(&out, "%.2fms", static_cast<double>(ns) / 1e6);
  } else {
    appendf(&out, "%.3fs", static_cast<double>(ns) / 1e9);
  }
  return out;
}

double quantile_fraction(std::string_view token) {
  if (token == "p50") return 0.50;
  if (token == "p90") return 0.90;
  if (token == "p95") return 0.95;
  if (token == "p99") return 0.99;
  if (token == "p999") return 0.999;
  return -1.0;
}

bool known_quantile(std::string_view token) {
  return quantile_fraction(token) >= 0.0 || token == "max" || token == "total";
}

std::uint64_t hist_value(const MergeableHistogram& h, std::string_view quantile) {
  if (quantile == "max") {
    return h.max();
  }
  return h.quantile(quantile_fraction(quantile));
}

}  // namespace

bool exemplar_worse(const TsExemplar& a, const TsExemplar& b) {
  if (a.value != b.value) {
    return a.value > b.value;
  }
  if (a.seq != b.seq) {
    return a.seq < b.seq;
  }
  if (a.source != b.source) {
    return a.source < b.source;
  }
  return a.path < b.path;
}

MergeableHistogram TsHist::cumulative() const {
  MergeableHistogram all;
  for (const auto& [w, h] : windows) {
    all.merge(h);
  }
  return all;
}

TsSeries& Collector::series_slot(std::string_view name) {
  auto it = doc_.series.find(name);
  if (it == doc_.series.end()) {
    it = doc_.series.emplace(std::string(name), TsSeries{}).first;
  }
  return it->second;
}

void Collector::count_at(std::string_view name, std::uint64_t t, std::int64_t n) {
  TsSeries& s = series_slot(name);
  s.windows[t / doc_.window_ns] += n;
  s.total += n;
}

void Collector::gauge_add_at(std::string_view name, std::uint64_t t,
                             std::int64_t delta) {
  TsSeries& s = series_slot(name);
  s.gauge = true;
  s.total += delta;
  // Last write in a window wins: the window records the level at its end.
  s.windows[t / doc_.window_ns] = s.total;
}

void Collector::observe_at(std::string_view name, std::uint64_t t,
                           std::uint64_t value) {
  auto it = doc_.hists.find(name);
  if (it == doc_.hists.end()) {
    it = doc_.hists.emplace(std::string(name), TsHist{}).first;
  }
  TsHist& hist = it->second;
  hist.windows[t / doc_.window_ns].record(value);
  // Tail exemplar: remember the worst sample per touched bucket, stamped
  // with the flight seq and the span path open at observation time.
  TsExemplar exemplar;
  exemplar.value = value;
  exemplar.seq = last_seq_;
  if (spans_ != nullptr && active_root_ != nullptr) {
    exemplar.path = spans_->open_path(*active_root_);
  }
  const std::uint32_t bucket = MergeableHistogram::bucket_index(value);
  auto ex = hist.exemplars.find(bucket);
  if (ex == hist.exemplars.end()) {
    hist.exemplars.emplace(bucket, std::move(exemplar));
  } else if (exemplar_worse(exemplar, ex->second)) {
    ex->second = std::move(exemplar);
  }
}

void Collector::on_flight_event(std::uint64_t t, std::int64_t track,
                                std::uint8_t kind, std::uint64_t a,
                                std::uint64_t b, std::uint8_t code,
                                std::uint64_t seq) {
  last_seq_ = seq;
  using flight::EventKind;
  switch (static_cast<EventKind>(kind)) {
    case EventKind::kSwitcherExit:
      count_at("switcher_exits", t);
      open_switch_[track] = t;
      break;
    case EventKind::kSwitcherEntry: {
      const auto it = open_switch_.find(track);
      if (it != open_switch_.end()) {
        observe_at("switch_exit_ns", t, t - it->second);
        open_switch_.erase(it);
      }
      break;
    }
    case EventKind::kDirectSwitch:
      count_at("direct_switches", t);
      observe_at("direct_switch_ns", t, b);
      break;
    case EventKind::kVmxExit:
      count_at("vmx_exits", t);
      open_vmx_[track] = t;
      break;
    case EventKind::kVmxEntry: {
      const auto it = open_vmx_.find(track);
      if (it != open_vmx_.end()) {
        observe_at("vmx_roundtrip_ns", t, t - it->second);
        open_vmx_.erase(it);
      }
      break;
    }
    case EventKind::kGuestFault:
      count_at("guest_faults", t);
      break;
    case EventKind::kSptFill:
      count_at(code == 1 ? "prefault_fills"
                         : (code == 2 ? "spt_fill_races" : "spt_fills"),
               t);
      break;
    case EventKind::kZap:
      count_at("zaps", t);
      break;
    case EventKind::kBulkZap:
      count_at("bulk_zaps", t);
      count_at("zapped_leaves", t, static_cast<std::int64_t>(a));
      break;
    case EventKind::kReclaim:
      count_at("reclaims", t);
      count_at("reclaimed_frames", t, static_cast<std::int64_t>(a));
      break;
    case EventKind::kGptEmulate:
      count_at("gpt_emulates", t);
      break;
    case EventKind::kLockAcquire:
      if (code == 1) {
        count_at("lock_contended", t);
        observe_at("lock_wait_ns", t, b);
      }
      break;
    case EventKind::kLockRelease:
      break;
    case EventKind::kFaultInjected:
      count_at("faults_injected", t);
      break;
    case EventKind::kWatchdog:
      if (code == 1) {
        count_at("watchdog_resets", t);
      } else if (code == 2) {
        count_at("watchdog_kills", t);
      }
      break;
    case EventKind::kOomKill:
      count_at("oom_kills", t);
      break;
    case EventKind::kMigrationRound:
      count_at("migration_rounds", t);
      count_at("migration_pages_copied", t, static_cast<std::int64_t>(a));
      count_at("migration_pages_dirtied", t, static_cast<std::int64_t>(b));
      break;
    case EventKind::kMigrationStopCopy:
      count_at("migration_stop_copies", t);
      observe_at("migration_downtime_ns", t, b);
      break;
    case EventKind::kMigrationFallback:
      count_at("migration_fallbacks", t);
      break;
    default:
      break;
  }
}

TsDoc Collector::drain() {
  TsDoc out = std::move(doc_);
  doc_ = TsDoc{};
  doc_.window_ns = out.window_ns;
  open_switch_.clear();
  open_vmx_.clear();
  return out;
}

bool merge_timeseries(TsDoc* into, const TsDoc& from, std::string* error) {
  if (into->empty()) {
    into->window_ns = from.window_ns;
  } else if (into->window_ns != from.window_ns) {
    if (error != nullptr) {
      *error = "window_ns mismatch: " + std::to_string(into->window_ns) +
               " vs " + std::to_string(from.window_ns);
    }
    return false;
  }
  for (const auto& [name, s] : from.series) {
    auto it = into->series.find(name);
    if (it == into->series.end()) {
      into->series.emplace(name, s);
      continue;
    }
    TsSeries& dst = it->second;
    if (dst.gauge != s.gauge) {
      if (error != nullptr) {
        *error = "series '" + name + "' is a counter in one document and a gauge in the other";
      }
      return false;
    }
    for (const auto& [w, v] : s.windows) {
      dst.windows[w] += v;
    }
    dst.total += s.total;
  }
  for (const auto& [name, h] : from.hists) {
    TsHist& dst = into->hists[name];
    for (const auto& [w, wh] : h.windows) {
      auto it = dst.windows.find(w);
      if (it == dst.windows.end()) {
        dst.windows.emplace(w, wh);
      } else {
        it->second.merge(wh);
      }
    }
    for (const auto& [bucket, exemplar] : h.exemplars) {
      auto it = dst.exemplars.find(bucket);
      if (it == dst.exemplars.end()) {
        dst.exemplars.emplace(bucket, exemplar);
      } else if (exemplar_worse(exemplar, it->second)) {
        it->second = exemplar;
      }
    }
  }
  return true;
}

TsDoc prefix_timeseries(const TsDoc& doc, std::string_view prefix) {
  TsDoc out;
  out.window_ns = doc.window_ns;
  for (const auto& [name, s] : doc.series) {
    out.series.emplace(std::string(prefix) + name, s);
  }
  for (const auto& [name, h] : doc.hists) {
    TsHist prefixed = h;
    // Exemplars accumulate the sweep coordinate: every prefix level prepends
    // itself, so a twice-prefixed exemplar reads "<mode>/<workload>/<label>/".
    for (auto& [bucket, exemplar] : prefixed.exemplars) {
      exemplar.source = std::string(prefix) + exemplar.source;
    }
    out.hists.emplace(std::string(prefix) + name, std::move(prefixed));
  }
  out.slos = doc.slos;
  return out;
}

bool parse_slo_spec(std::string_view text, SloSpec* out, std::string* error) {
  const auto fail = [error](std::string message) {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };
  SloSpec spec;
  const std::size_t first = text.find(':');
  if (first == std::string_view::npos || first == 0) {
    return fail("expected <name>:<metric>:<quantile><=<threshold>[:window]");
  }
  spec.name = std::string(text.substr(0, first));
  std::string_view rest = text.substr(first + 1);
  if (rest.ends_with(":window")) {
    spec.per_window = true;
    rest.remove_suffix(7);
  } else if (rest.ends_with(":run")) {
    rest.remove_suffix(4);
  }
  const std::size_t last = rest.rfind(':');
  if (last == std::string_view::npos || last == 0 || last + 1 >= rest.size()) {
    return fail("expected <name>:<metric>:<quantile><=<threshold>[:window]");
  }
  spec.metric = std::string(rest.substr(0, last));
  const std::string_view check = rest.substr(last + 1);
  const std::size_t le = check.find("<=");
  if (le == std::string_view::npos || le == 0) {
    return fail("threshold must be written '<quantile><=<value>'");
  }
  spec.quantile = std::string(check.substr(0, le));
  if (!known_quantile(spec.quantile)) {
    return fail("unknown quantile '" + spec.quantile +
                "' (expected p50|p90|p95|p99|p999|max|total)");
  }
  std::string_view threshold = check.substr(le + 2);
  double multiplier = 1.0;
  if (threshold.ends_with("ns")) {
    threshold.remove_suffix(2);
  } else if (threshold.ends_with("us")) {
    multiplier = 1e3;
    threshold.remove_suffix(2);
  } else if (threshold.ends_with("ms")) {
    multiplier = 1e6;
    threshold.remove_suffix(2);
  } else if (threshold.ends_with("s")) {
    multiplier = 1e9;
    threshold.remove_suffix(1);
  }
  if (threshold.empty()) {
    return fail("missing threshold value");
  }
  const std::string digits(threshold);
  char* end = nullptr;
  const double value = std::strtod(digits.c_str(), &end);
  if (end != digits.c_str() + digits.size() || value < 0.0) {
    return fail("bad threshold value '" + digits + "'");
  }
  spec.threshold_ns = static_cast<std::uint64_t>(std::llround(value * multiplier));
  *out = std::move(spec);
  return true;
}

void evaluate_slos(TsDoc* doc, const std::vector<SloSpec>& specs) {
  doc->slos.clear();
  for (const SloSpec& spec : specs) {
    bool matched = false;
    if (spec.quantile == "total") {
      for (const auto& [name, s] : doc->series) {
        if (name != spec.metric && name.find(spec.metric) == std::string::npos) {
          continue;
        }
        matched = true;
        SloResult result;
        result.name = spec.name;
        result.metric = name;
        result.quantile = spec.quantile;
        result.threshold_ns = spec.threshold_ns;
        result.scope = spec.per_window ? "window" : "run";
        std::int64_t worst = 0;
        std::uint64_t worst_window = 0;
        bool any = false;
        for (const auto& [w, v] : s.windows) {
          if (!any || v > worst) {
            worst = v;
            worst_window = w;
            any = true;
          }
        }
        result.worst_window = worst_window;
        result.value = spec.per_window ? worst : s.total;
        result.pass =
            result.value <= static_cast<std::int64_t>(spec.threshold_ns);
        doc->slos.push_back(std::move(result));
      }
    } else {
      for (const auto& [name, h] : doc->hists) {
        if (name != spec.metric && name.find(spec.metric) == std::string::npos) {
          continue;
        }
        matched = true;
        SloResult result;
        result.name = spec.name;
        result.metric = name;
        result.quantile = spec.quantile;
        result.threshold_ns = spec.threshold_ns;
        result.scope = spec.per_window ? "window" : "run";
        std::uint64_t worst = 0;
        std::uint64_t worst_window = 0;
        bool any = false;
        for (const auto& [w, wh] : h.windows) {
          const std::uint64_t v = hist_value(wh, spec.quantile);
          if (!any || v > worst) {
            worst = v;
            worst_window = w;
            any = true;
          }
        }
        result.worst_window = worst_window;
        const std::uint64_t value =
            spec.per_window ? worst : hist_value(h.cumulative(), spec.quantile);
        result.value = static_cast<std::int64_t>(value);
        result.pass = value <= spec.threshold_ns;
        doc->slos.push_back(std::move(result));
      }
    }
    if (!matched) {
      SloResult result;
      result.name = spec.name;
      result.metric = "(no match: " + spec.metric + ")";
      result.quantile = spec.quantile;
      result.threshold_ns = spec.threshold_ns;
      result.scope = spec.per_window ? "window" : "run";
      result.pass = false;
      doc->slos.push_back(std::move(result));
    }
  }
}

std::string render_timeseries_json(const TsDoc& doc) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value(kTimeseriesSchemaVersion);
  w.key("window_ns").value(doc.window_ns);
  w.key("series").begin_array();
  for (const auto& [name, s] : doc.series) {
    w.begin_object();
    w.key("name").value(name);
    w.key("kind").value(s.gauge ? "gauge" : "counter");
    w.key("total").value(s.total);
    w.key("windows").begin_array();
    for (const auto& [window, v] : s.windows) {
      w.begin_array().value(window).value(v).end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("hists").begin_array();
  for (const auto& [name, h] : doc.hists) {
    const MergeableHistogram all = h.cumulative();
    w.begin_object();
    w.key("name").value(name);
    w.key("count").value(all.count());
    w.key("sum").value(all.sum());
    w.key("min").value(all.min());
    w.key("max").value(all.max());
    w.key("p50").value(all.quantile(0.50));
    w.key("p99").value(all.quantile(0.99));
    w.key("p999").value(all.quantile(0.999));
    w.key("exemplars").begin_array();
    for (const auto& [bucket, exemplar] : h.exemplars) {
      w.begin_object();
      w.key("bucket").value(static_cast<std::uint64_t>(bucket));
      w.key("value").value(exemplar.value);
      w.key("seq").value(exemplar.seq);
      w.key("source").value(exemplar.source);
      w.key("path").value(exemplar.path);
      w.end_object();
    }
    w.end_array();
    w.key("windows").begin_array();
    for (const auto& [window, wh] : h.windows) {
      w.begin_object();
      w.key("w").value(window);
      w.key("count").value(wh.count());
      w.key("sum").value(wh.sum());
      w.key("min").value(wh.min());
      w.key("max").value(wh.max());
      w.key("buckets").begin_array();
      wh.for_each_bucket([&w](std::uint32_t index, std::uint64_t n) {
        w.begin_array().value(static_cast<std::uint64_t>(index)).value(n).end_array();
      });
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("slos");
  render_slo_results(w, doc.slos);
  w.end_object();
  return w.str() + "\n";
}

void render_slo_results(obs::JsonWriter& w, const std::vector<SloResult>& slos) {
  w.begin_array();
  for (const SloResult& slo : slos) {
    w.begin_object();
    w.key("name").value(slo.name);
    w.key("metric").value(slo.metric);
    w.key("quantile").value(slo.quantile);
    w.key("threshold_ns").value(slo.threshold_ns);
    w.key("scope").value(slo.scope);
    w.key("value").value(slo.value);
    w.key("worst_window").value(slo.worst_window);
    w.key("pass").value(slo.pass);
    w.end_object();
  }
  w.end_array();
}

bool parse_slo_results(const obs::JsonValue& array, std::vector<SloResult>* out) {
  for (const obs::JsonValue& entry : array.array) {
    SloResult slo;
    if (const obs::JsonValue* v = entry.find("name")) slo.name = v->string;
    if (const obs::JsonValue* v = entry.find("metric")) slo.metric = v->string;
    if (const obs::JsonValue* v = entry.find("quantile")) slo.quantile = v->string;
    if (const obs::JsonValue* v = entry.find("scope")) slo.scope = v->string;
    if (const obs::JsonValue* v = entry.find("pass")) slo.pass = v->boolean;
    if (!obs::json_u64(entry.find("threshold_ns"), &slo.threshold_ns) ||
        !obs::json_i64(entry.find("value"), &slo.value) ||
        !obs::json_u64(entry.find("worst_window"), &slo.worst_window)) {
      return false;
    }
    out->push_back(std::move(slo));
  }
  return true;
}

bool parse_timeseries_json(std::string_view text, TsDoc* out, std::string* error) {
  const auto fail = [error](std::string message) {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };
  obs::JsonValue root;
  std::string parse_error;
  if (!obs::json_parse(text, &root, &parse_error)) {
    return fail("bad JSON: " + parse_error);
  }
  const obs::JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != kTimeseriesSchemaVersion) {
    return fail("not a pvm.timeseries.v1 document");
  }
  TsDoc doc;
  const obs::JsonValue* window_ns = root.find("window_ns");
  if (window_ns == nullptr || !obs::json_u64(window_ns, &doc.window_ns)) {
    return fail("missing window_ns");
  }
  if (const obs::JsonValue* series = root.find("series"); series != nullptr) {
    for (const obs::JsonValue& entry : series->array) {
      const obs::JsonValue* name = entry.find("name");
      const obs::JsonValue* kind = entry.find("kind");
      const obs::JsonValue* windows = entry.find("windows");
      if (name == nullptr || kind == nullptr || windows == nullptr) {
        return fail("malformed series entry");
      }
      TsSeries s;
      s.gauge = kind->string == "gauge";
      for (const obs::JsonValue& pair : windows->array) {
        std::uint64_t w = 0;
        std::int64_t value = 0;
        if (pair.array.size() != 2 || !obs::json_u64(&pair.array[0], &w) ||
            !obs::json_i64(&pair.array[1], &value)) {
          return fail("malformed series window");
        }
        s.windows[w] = value;
      }
      // Totals are recomputed, not trusted: counter total is the sum of
      // window increments, gauge total the final level.
      if (s.gauge) {
        s.total = s.windows.empty() ? 0 : s.windows.rbegin()->second;
      } else {
        for (const auto& [w, v] : s.windows) {
          s.total += v;
        }
      }
      doc.series.emplace(name->string, std::move(s));
    }
  }
  if (const obs::JsonValue* hists = root.find("hists"); hists != nullptr) {
    for (const obs::JsonValue& entry : hists->array) {
      const obs::JsonValue* name = entry.find("name");
      const obs::JsonValue* windows = entry.find("windows");
      if (name == nullptr || windows == nullptr) {
        return fail("malformed hist entry");
      }
      TsHist h;
      if (const obs::JsonValue* exemplars = entry.find("exemplars");
          exemplars != nullptr) {
        for (const obs::JsonValue& eentry : exemplars->array) {
          const obs::JsonValue* bucket = eentry.find("bucket");
          TsExemplar exemplar;
          if (bucket == nullptr || !bucket->is_number() ||
              !MergeableHistogram::is_bucket_index(bucket->number) ||
              !obs::json_u64(eentry.find("value"), &exemplar.value) ||
              !obs::json_u64(eentry.find("seq"), &exemplar.seq)) {
            return fail("malformed hist exemplar");
          }
          if (const obs::JsonValue* v = eentry.find("source")) exemplar.source = v->string;
          if (const obs::JsonValue* v = eentry.find("path")) exemplar.path = v->string;
          h.exemplars[static_cast<std::uint32_t>(bucket->number)] = std::move(exemplar);
        }
      }
      for (const obs::JsonValue& wentry : windows->array) {
        const obs::JsonValue* w = wentry.find("w");
        const obs::JsonValue* count = wentry.find("count");
        const obs::JsonValue* sum = wentry.find("sum");
        const obs::JsonValue* min = wentry.find("min");
        const obs::JsonValue* max = wentry.find("max");
        const obs::JsonValue* buckets = wentry.find("buckets");
        std::uint64_t index = 0, n = 0, total = 0, lo = 0, hi = 0;
        if (w == nullptr || count == nullptr || sum == nullptr || min == nullptr ||
            max == nullptr || buckets == nullptr || !obs::json_u64(w, &index) ||
            !obs::json_u64(count, &n) || !obs::json_u64(sum, &total) ||
            !obs::json_u64(min, &lo) || !obs::json_u64(max, &hi)) {
          return fail("malformed hist window");
        }
        std::map<std::uint32_t, std::uint64_t> parsed;
        for (const obs::JsonValue& pair : buckets->array) {
          std::uint64_t weight = 0;
          if (pair.array.size() != 2 || !pair.array[0].is_number() ||
              !MergeableHistogram::is_bucket_index(pair.array[0].number) ||
              !obs::json_u64(&pair.array[1], &weight)) {
            return fail("malformed hist bucket");
          }
          parsed[static_cast<std::uint32_t>(pair.array[0].number)] = weight;
        }
        h.windows.emplace(index, MergeableHistogram::from_parts(n, total, lo, hi, parsed));
      }
      doc.hists.emplace(name->string, std::move(h));
    }
  }
  if (const obs::JsonValue* slos = root.find("slos");
      slos != nullptr && !parse_slo_results(*slos, &doc.slos)) {
    return fail("malformed slo result");
  }
  *out = std::move(doc);
  return true;
}

namespace {

// Sparkline over [w_lo, w_hi] downsampled to at most `width` columns by
// taking the max value per column. Nine ASCII levels; absent/zero windows
// render as spaces so bursts stand out.
std::string sparkline(const std::map<std::uint64_t, std::int64_t>& windows,
                      std::uint64_t w_lo, std::uint64_t w_hi, int width) {
  static constexpr char kLevels[] = " .:-=+*#@";
  const std::uint64_t span = w_hi - w_lo + 1;
  const std::uint64_t per_column =
      (span + static_cast<std::uint64_t>(width) - 1) /
      static_cast<std::uint64_t>(width);
  const std::uint64_t columns = (span + per_column - 1) / per_column;
  std::vector<std::int64_t> values(columns, 0);
  for (const auto& [w, v] : windows) {
    if (w < w_lo || w > w_hi || v <= 0) {
      continue;
    }
    const std::uint64_t column = (w - w_lo) / per_column;
    if (v > values[column]) {
      values[column] = v;
    }
  }
  std::int64_t peak = 0;
  for (const std::int64_t v : values) {
    if (v > peak) {
      peak = v;
    }
  }
  std::string out;
  out.reserve(columns);
  for (const std::int64_t v : values) {
    if (v <= 0 || peak <= 0) {
      out.push_back(kLevels[0]);
    } else {
      std::int64_t level = 1 + ((v - 1) * 8) / peak;
      if (level > 8) {
        level = 8;
      }
      out.push_back(kLevels[level]);
    }
  }
  return out;
}

std::string clip_name(const std::string& name, std::size_t width) {
  if (name.size() <= width) {
    return name;
  }
  return name.substr(0, width - 1) + "~";
}

}  // namespace

std::string render_top(const TsDoc& doc, const TopOptions& options) {
  const auto keep = [&options](const std::string& name) {
    return options.filter.empty() ||
           name.find(options.filter) != std::string::npos;
  };
  const int width = options.width < 8 ? 8 : options.width;

  // Shared window axis across every section, so rows line up.
  bool any_window = false;
  std::uint64_t w_lo = 0;
  std::uint64_t w_hi = 0;
  const auto widen = [&](std::uint64_t w) {
    if (!any_window) {
      w_lo = w_hi = w;
      any_window = true;
    } else {
      if (w < w_lo) w_lo = w;
      if (w > w_hi) w_hi = w;
    }
  };
  for (const auto& [name, s] : doc.series) {
    for (const auto& [w, v] : s.windows) {
      widen(w);
    }
  }
  for (const auto& [name, h] : doc.hists) {
    for (const auto& [w, wh] : h.windows) {
      widen(w);
    }
  }

  std::string out;
  appendf(&out, "pvm-top — %s  window %s  span w%llu..w%llu (%llu windows)\n",
          std::string(kTimeseriesSchemaVersion).c_str(),
          format_ns(doc.window_ns).c_str(),
          static_cast<unsigned long long>(w_lo),
          static_cast<unsigned long long>(w_hi),
          static_cast<unsigned long long>(any_window ? w_hi - w_lo + 1 : 0));
  if (!any_window) {
    out += "(empty document)\n";
    return out;
  }

  constexpr std::size_t kNameWidth = 44;
  bool series_header = false;
  for (const auto& [name, s] : doc.series) {
    if (!keep(name)) {
      continue;
    }
    if (!series_header) {
      appendf(&out, "\n%-*s %12s  %-*s  %s\n", static_cast<int>(kNameWidth),
              "SERIES", "TOTAL", width, "TREND", "WORST");
      series_header = true;
    }
    std::int64_t worst = 0;
    std::uint64_t worst_window = w_lo;
    bool any = false;
    for (const auto& [w, v] : s.windows) {
      if (!any || v > worst) {
        worst = v;
        worst_window = w;
        any = true;
      }
    }
    appendf(&out, "%-*s %12lld  %-*s  w%llu=%lld\n", static_cast<int>(kNameWidth),
            clip_name(name, kNameWidth).c_str(), static_cast<long long>(s.total),
            width, sparkline(s.windows, w_lo, w_hi, width).c_str(),
            static_cast<unsigned long long>(worst_window),
            static_cast<long long>(worst));
  }

  bool hist_header = false;
  for (const auto& [name, h] : doc.hists) {
    if (!keep(name)) {
      continue;
    }
    if (!hist_header) {
      appendf(&out, "\n%-*s %8s %9s %9s %9s %9s  %-*s  %s\n",
              static_cast<int>(kNameWidth), "LATENCY", "COUNT", "P50", "P99",
              "P999", "MAX", width, "TREND(p99)", "WORST");
      hist_header = true;
    }
    const MergeableHistogram all = h.cumulative();
    std::map<std::uint64_t, std::int64_t> p99s;
    std::uint64_t worst = 0;
    std::uint64_t worst_window = w_lo;
    bool any = false;
    for (const auto& [w, wh] : h.windows) {
      const std::uint64_t p99 = wh.quantile(0.99);
      p99s[w] = static_cast<std::int64_t>(p99);
      if (!any || p99 > worst) {
        worst = p99;
        worst_window = w;
        any = true;
      }
    }
    appendf(&out, "%-*s %8llu %9s %9s %9s %9s  %-*s  w%llu=%s\n",
            static_cast<int>(kNameWidth), clip_name(name, kNameWidth).c_str(),
            static_cast<unsigned long long>(all.count()),
            format_ns(all.quantile(0.50)).c_str(),
            format_ns(all.quantile(0.99)).c_str(),
            format_ns(all.quantile(0.999)).c_str(), format_ns(all.max()).c_str(),
            width, sparkline(p99s, w_lo, w_hi, width).c_str(),
            static_cast<unsigned long long>(worst_window),
            format_ns(worst).c_str());
    if (const TsExemplar* tail = h.tail_exemplar(); tail != nullptr) {
      // Direct append (not appendf): sweep-coordinate sources and span paths
      // can outgrow appendf's fixed buffer, and truncation here would cut the
      // very link the exemplar exists to provide.
      out += "  tail exemplar: seq=" + std::to_string(tail->seq) +
             " value=" + format_ns(tail->value) +
             " source=" + (tail->source.empty() ? "-" : tail->source) +
             " path=" + (tail->path.empty() ? "-" : tail->path) + "\n";
    }
  }

  if (!doc.slos.empty()) {
    appendf(&out, "\n%-20s %-*s %6s %10s %10s %-7s %6s  %s\n", "SLO",
            static_cast<int>(kNameWidth), "METRIC", "Q", "VALUE", "THRESHOLD",
            "SCOPE", "WORST", "RESULT");
    for (const SloResult& slo : doc.slos) {
      const bool total = slo.quantile == "total";
      std::string value = total ? std::to_string(slo.value)
                                : format_ns(static_cast<std::uint64_t>(
                                      slo.value < 0 ? 0 : slo.value));
      std::string threshold = total ? std::to_string(slo.threshold_ns)
                                    : format_ns(slo.threshold_ns);
      appendf(&out, "%-20s %-*s %6s %10s %10s %-7s %5sw%llu  %s\n",
              clip_name(slo.name, 20).c_str(), static_cast<int>(kNameWidth),
              clip_name(slo.metric, kNameWidth).c_str(), slo.quantile.c_str(),
              value.c_str(), threshold.c_str(), slo.scope.c_str(), "",
              static_cast<unsigned long long>(slo.worst_window),
              slo.pass ? "PASS" : "FAIL");
    }
  }
  return out;
}

}  // namespace pvm::ts
