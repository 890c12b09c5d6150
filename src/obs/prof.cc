#include "src/obs/prof.h"

#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdio>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/json_parse.h"
#include "src/obs/span.h"
#include "src/sim/flat_map.h"

namespace pvm::prof {

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

// Interned phase paths. A path component is a Phase index, or kPhaseCount +
// lock index for a lock wait whose lock-track mirror record names its
// resource; a path is (parent path id, component), kNoPath for an op root.
constexpr std::uint32_t kNoPath = ~std::uint32_t{0};
constexpr std::uint32_t kNoInstance = ~std::uint32_t{0};

obs::Phase component_phase(std::uint32_t component) {
  return component < obs::kPhaseCount ? static_cast<obs::Phase>(component)
                                      : obs::Phase::kLockWait;
}

// One reconstructed span-tree node. Its children are
// Fold::children[first_child, first_child + child_count), latest-opened
// first.
struct Node {
  obs::TimeNs begin = 0;
  obs::TimeNs end = 0;
  std::int64_t track = -1;
  std::uint32_t depth = 0;
  std::uint32_t component = 0;
  std::uint32_t first_child = 0;
  std::uint32_t child_count = 0;
};

// FlatMap mixes the key bits itself; integer keys hash as themselves.
void add_stat(PathStat* into, const PathStat& stat) {
  into->exclusive_ns += stat.exclusive_ns;
  into->count += stat.count;
}

// The "worse worst-instance" total order used on merge: larger latency wins;
// ties prefer the earlier begin, then the smaller track. Total, so merging
// shards in any order keeps the same survivor.
bool worst_worse(const OpProfile& a, const OpProfile& b) {
  if (a.worst_ns != b.worst_ns) {
    return a.worst_ns > b.worst_ns;
  }
  if (a.worst_begin_ns != b.worst_begin_ns) {
    return a.worst_begin_ns < b.worst_begin_ns;
  }
  return a.worst_track < b.worst_track;
}

// State of the fold: the node arena, migration-op intervals for cross-track
// attribution, the interned path table, and the op instances with their
// per-path contributions. Nothing here is keyed by string: names are
// rendered once per distinct path after the walk.
struct Fold {
  std::vector<Node> nodes;
  std::vector<std::uint32_t> children;
  // [begin, end) of every kOpMigration span, any track.
  std::vector<std::pair<obs::TimeNs, obs::TimeNs>> migration_intervals;
  // Resource name per lock index (track - kLockTrackBase).
  std::vector<std::string_view> lock_names;

  struct PathEntry {
    std::uint32_t parent;
    std::uint32_t component;
  };
  std::vector<PathEntry> path_table;
  // (parent << 32 | component) -> path id.
  FlatMap<std::uint64_t, std::uint32_t, IdentityHash> path_ids;

  struct Instance {
    std::uint64_t latency = 0;
    obs::TimeNs begin = 0;
    std::int64_t track = -1;
    obs::Phase phase = obs::Phase::kCount;
  };
  // Op instances in walk pre-order; post_order lists them in walk
  // post-order, the order worst-instance ties are broken in (first wins).
  std::vector<Instance> instances;
  std::vector<std::uint32_t> post_order;
  struct Contribution {
    std::uint32_t instance;
    std::uint32_t path;
    std::uint64_t exclusive_ns;
  };
  std::vector<Contribution> contributions;
  // Cross-track contributions redirected into the migration op, by path id.
  // Not bound to one instance, so they join paths but never tail_paths or
  // the latency histogram.
  std::vector<PathStat> migration_redirect;

  bool in_migration_interval(obs::TimeNs t) const {
    for (const auto& [begin, end] : migration_intervals) {
      if (t >= begin && t < end) {
        return true;
      }
    }
    return false;
  }

  std::uint64_t exclusive_ns(const Node& node) const {
    std::uint64_t child_ns = 0;
    for (std::uint32_t i = 0; i < node.child_count; ++i) {
      const Node& child = nodes[children[node.first_child + i]];
      child_ns += child.end - child.begin;
    }
    const std::uint64_t total = node.end - node.begin;
    return total > child_ns ? total - child_ns : 0;
  }

  std::uint32_t intern(std::uint32_t parent, std::uint32_t component) {
    const std::uint64_t key = (std::uint64_t{parent} << 32) | component;
    const auto next = static_cast<std::uint32_t>(path_table.size());
    const auto [id, inserted] = path_ids.try_emplace(key, next);
    if (inserted) {
      path_table.push_back(PathEntry{parent, component});
    }
    return *id;
  }

  std::uint32_t root_component(std::uint32_t path) const {
    while (path_table[path].parent != kNoPath) {
      path = path_table[path].parent;
    }
    return path_table[path].component;
  }

  // "op.page_fault;spt_fill;lock_wait:mmu_lock"; `names` memoizes by id.
  const std::string& path_name(std::uint32_t path, std::vector<std::string>* names) const {
    std::string& name = (*names)[path];
    if (name.empty()) {
      const PathEntry& entry = path_table[path];
      if (entry.parent != kNoPath) {
        name = path_name(entry.parent, names);
        name += ';';
      }
      if (entry.component < obs::kPhaseCount) {
        name += obs::phase_name(component_phase(entry.component));
      } else {
        name += "lock_wait:";
        name += lock_names[entry.component - obs::kPhaseCount];
      }
    }
    return name;
  }

  // Accumulates `node`'s subtree into the migration op under
  // "op.migration;dirty_track;..." (the cross-track redirect).
  void redirect_subtree(std::uint32_t index, std::uint32_t path) {
    const Node& node = nodes[index];
    if (migration_redirect.size() <= path) {
      migration_redirect.resize(path + 1);
    }
    add_stat(&migration_redirect[path], PathStat{exclusive_ns(node), 1});
    for (std::uint32_t i = 0; i < node.child_count; ++i) {
      const std::uint32_t child = children[node.first_child + i];
      redirect_subtree(child, intern(path, nodes[child].component));
    }
  }

  // Walks `node` with the nearest enclosing op instance (or kNoInstance).
  // `path` is the instance-relative phase path id.
  void visit(std::uint32_t index, std::uint32_t instance, bool op_is_migration,
             std::uint32_t path) {
    const Node& node = nodes[index];
    const obs::Phase phase = component_phase(node.component);
    // A dirty-tracking span paid by a non-migration track while a migration
    // op is in flight is the migration's cost: redirect the whole subtree.
    if (phase == obs::Phase::kDirtyTrack && !op_is_migration &&
        in_migration_interval(node.begin)) {
      const auto migration = static_cast<std::uint32_t>(obs::Phase::kOpMigration);
      redirect_subtree(index, intern(intern(kNoPath, migration), node.component));
      return;
    }
    const bool is_op = obs::phase_is_op(phase);
    if (is_op) {
      // A new op instance: path restarts at the op root.
      instance = static_cast<std::uint32_t>(instances.size());
      instances.push_back(Instance{node.end - node.begin, node.begin, node.track, phase});
      path = intern(kNoPath, node.component);
      op_is_migration = phase == obs::Phase::kOpMigration;
    } else if (instance != kNoInstance) {
      path = intern(path, node.component);
    }
    for (std::uint32_t i = 0; i < node.child_count; ++i) {
      visit(children[node.first_child + i], instance, op_is_migration, path);
    }
    if (instance != kNoInstance) {
      contributions.push_back(Contribution{instance, path, exclusive_ns(node)});
    }
    if (is_op) {
      post_order.push_back(instance);
    }
  }
};

}  // namespace

ProfDoc fold_profile(const obs::SpanRecorder& recorder, std::size_t first_span) {
  ProfDoc doc;
  doc.dropped_spans = recorder.dropped_spans();
  const std::vector<obs::SpanRecord>& records = recorder.spans();
  if (first_span >= records.size()) {
    return doc;
  }

  Fold fold;
  // Lock tracks are dense ids from kLockTrackBase in first-use order, so a
  // lock-track mirror record's track indexes its resource name.
  fold.lock_names.resize(recorder.lock_tracks().size());
  for (const auto& [name, track] : recorder.lock_tracks()) {
    const auto lock = static_cast<std::size_t>(track - obs::SpanRecorder::kLockTrackBase);
    if (lock < fold.lock_names.size()) {
      fold.lock_names[lock] = name;
    }
  }

  // Rebuild one tree forest per main track from the close-ordered record
  // stream: a record at depth d adopts the trailing pending subtrees deeper
  // than d (they closed earlier and nest inside it). Depth, not begin time,
  // decides: a zero-length span closed just before a sibling that opens at
  // the same instant stays that sibling's sibling.
  fold.nodes.reserve(records.size() - first_span);
  FlatMap<std::int64_t, std::uint32_t, IdentityHash> track_slots;
  std::vector<std::vector<std::uint32_t>> pending;  // per track slot: completed roots-so-far
  std::int64_t last_track = 0;
  std::uint32_t last_slot = 0;
  std::vector<std::uint32_t> roots;  // depth-0 nodes, close order
  for (std::size_t i = first_span; i < records.size(); ++i) {
    const obs::SpanRecord& record = records[i];
    if (record.track >= obs::SpanRecorder::kLockTrackBase) {
      continue;  // lock-track mirror; consumed via adjacency below
    }
    auto component = static_cast<std::uint32_t>(record.phase);
    if (record.phase == obs::Phase::kLockWait && i + 1 < records.size() &&
        records[i + 1].track >= obs::SpanRecorder::kLockTrackBase &&
        records[i + 1].begin_ns == record.begin_ns &&
        records[i + 1].end_ns == record.end_ns) {
      const auto lock = static_cast<std::size_t>(records[i + 1].track -
                                                 obs::SpanRecorder::kLockTrackBase);
      if (lock < fold.lock_names.size() && !fold.lock_names[lock].empty()) {
        component = static_cast<std::uint32_t>(obs::kPhaseCount + lock);
      }
    }
    if (pending.empty() || record.track != last_track) {
      const auto next = static_cast<std::uint32_t>(pending.size());
      last_slot = *track_slots.try_emplace(record.track, next).first;
      last_track = record.track;
      if (last_slot == next) {
        pending.emplace_back();
      }
    }
    std::vector<std::uint32_t>& stack = pending[last_slot];
    std::size_t adopted = 0;
    while (adopted < stack.size() &&
           fold.nodes[stack[stack.size() - 1 - adopted]].depth > record.depth) {
      ++adopted;
    }
    const auto index = static_cast<std::uint32_t>(fold.nodes.size());
    fold.nodes.push_back(Node{record.begin_ns, record.end_ns, record.track, record.depth,
                              component,
                              static_cast<std::uint32_t>(fold.children.size()),
                              static_cast<std::uint32_t>(adopted)});
    // The adopted tail is in close order, which for siblings is also open
    // order; it is stored reversed, so the walk visits later siblings first.
    fold.children.insert(fold.children.end(), stack.rbegin(),
                         stack.rbegin() + static_cast<std::ptrdiff_t>(adopted));
    stack.resize(stack.size() - adopted);
    if (record.depth == 0) {
      roots.push_back(index);
    } else {
      stack.push_back(index);
    }
    if (record.phase == obs::Phase::kOpMigration) {
      fold.migration_intervals.emplace_back(record.begin_ns, record.end_ns);
    }
  }
  // Spans still pending at depth > 0 have no enclosing record (their parent
  // never closed); treat them as roots, in track order, so their time is not
  // lost.
  std::vector<std::pair<std::int64_t, std::uint32_t>> leftover;
  track_slots.for_each([&](std::int64_t track, std::uint32_t slot) {
    if (!pending[slot].empty()) {
      leftover.emplace_back(track, slot);
    }
  });
  std::sort(leftover.begin(), leftover.end());
  for (const auto& [track, slot] : leftover) {
    roots.insert(roots.end(), pending[slot].begin(), pending[slot].end());
  }

  for (std::uint32_t root : roots) {
    fold.visit(root, kNoInstance, /*op_is_migration=*/false, kNoPath);
  }

  // Aggregate instances per op kind, in post-order: latency histogram and
  // worst instance, then the tail cohort cut at this fold's bucketed p99.
  std::array<OpProfile*, obs::kPhaseCount> profiles{};
  for (std::uint32_t id : fold.post_order) {
    const Fold::Instance& instance = fold.instances[id];
    OpProfile*& profile = profiles[static_cast<std::size_t>(instance.phase)];
    if (profile == nullptr) {
      profile = &doc.ops[std::string(obs::phase_name(instance.phase))];
    }
    profile->latency.record(instance.latency);
    if (instance.latency > profile->worst_ns ||
        (profile->worst_track < 0 && profile->latency.count() == 1)) {
      profile->worst_ns = instance.latency;
      profile->worst_begin_ns = instance.begin;
      profile->worst_track = instance.track;
    }
  }
  for (OpProfile* profile : profiles) {
    if (profile != nullptr) {
      profile->tail_threshold_ns = profile->latency.quantile(0.99);
    }
  }
  std::vector<PathStat> paths(fold.path_table.size());
  std::vector<PathStat> tail_paths(fold.path_table.size());
  for (const Fold::Contribution& c : fold.contributions) {
    const PathStat stat{c.exclusive_ns, 1};
    add_stat(&paths[c.path], stat);
    const Fold::Instance& instance = fold.instances[c.instance];
    const OpProfile& profile = *profiles[static_cast<std::size_t>(instance.phase)];
    if (instance.latency >= profile.tail_threshold_ns) {
      add_stat(&tail_paths[c.path], stat);
    }
  }

  // Render each used path once; its root component names its op.
  std::vector<std::string> names(fold.path_table.size());
  for (std::uint32_t id = 0; id < paths.size(); ++id) {
    if (paths[id].count == 0) {
      continue;
    }
    OpProfile& profile = *profiles[fold.root_component(id)];
    const std::string& name = fold.path_name(id, &names);
    add_stat(&profile.paths[name], paths[id]);
    if (tail_paths[id].count != 0) {
      add_stat(&profile.tail_paths[name], tail_paths[id]);
    }
  }
  // Cross-track redirects land on the migration op even when the folding
  // recorder never saw the migration root itself.
  if (!fold.migration_redirect.empty()) {
    OpProfile& profile = doc.ops[std::string(obs::phase_name(obs::Phase::kOpMigration))];
    for (std::uint32_t id = 0; id < fold.migration_redirect.size(); ++id) {
      if (fold.migration_redirect[id].count != 0) {
        add_stat(&profile.paths[fold.path_name(id, &names)], fold.migration_redirect[id]);
      }
    }
  }
  return doc;
}

bool merge_profile(ProfDoc* into, const ProfDoc& from, std::string* error) {
  (void)error;
  for (const auto& [name, profile] : from.ops) {
    auto it = into->ops.find(name);
    if (it == into->ops.end()) {
      into->ops.emplace(name, profile);
      continue;
    }
    OpProfile& dst = it->second;
    dst.latency.merge(profile.latency);
    for (const auto& [path, stat] : profile.paths) {
      add_stat(&dst.paths[path], stat);
    }
    for (const auto& [path, stat] : profile.tail_paths) {
      add_stat(&dst.tail_paths[path], stat);
    }
    dst.tail_threshold_ns = std::max(dst.tail_threshold_ns, profile.tail_threshold_ns);
    if (worst_worse(profile, dst)) {
      dst.worst_ns = profile.worst_ns;
      dst.worst_begin_ns = profile.worst_begin_ns;
      dst.worst_track = profile.worst_track;
    }
  }
  into->dropped_spans += from.dropped_spans;
  return true;
}

ProfDoc prefix_profile(const ProfDoc& doc, std::string_view prefix) {
  ProfDoc out;
  out.dropped_spans = doc.dropped_spans;
  for (const auto& [name, profile] : doc.ops) {
    out.ops.emplace(std::string(prefix) + name, profile);
  }
  return out;
}

std::string render_profile_json(const ProfDoc& doc) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value(kProfileSchemaVersion);
  w.key("dropped_spans").value(doc.dropped_spans);
  w.key("ops").begin_array();
  for (const auto& [name, profile] : doc.ops) {
    w.begin_object();
    w.key("name").value(name);
    w.key("count").value(profile.latency.count());
    w.key("sum_ns").value(profile.latency.sum());
    w.key("min_ns").value(profile.latency.min());
    w.key("max_ns").value(profile.latency.max());
    w.key("p50_ns").value(profile.latency.quantile(0.50));
    w.key("p99_ns").value(profile.latency.quantile(0.99));
    w.key("buckets").begin_array();
    profile.latency.for_each_bucket([&w](std::uint32_t index, std::uint64_t n) {
      w.begin_array().value(static_cast<std::uint64_t>(index)).value(n).end_array();
    });
    w.end_array();
    w.key("tail_threshold_ns").value(profile.tail_threshold_ns);
    w.key("worst_ns").value(profile.worst_ns);
    w.key("worst_begin_ns").value(profile.worst_begin_ns);
    w.key("worst_track").value(profile.worst_track);
    w.key("paths").begin_array();
    for (const auto& [path, stat] : profile.paths) {
      w.begin_object();
      w.key("path").value(path);
      w.key("excl_ns").value(stat.exclusive_ns);
      w.key("count").value(stat.count);
      w.end_object();
    }
    w.end_array();
    w.key("tail_paths").begin_array();
    for (const auto& [path, stat] : profile.tail_paths) {
      w.begin_object();
      w.key("path").value(path);
      w.key("excl_ns").value(stat.exclusive_ns);
      w.key("count").value(stat.count);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

bool parse_profile_json(std::string_view text, ProfDoc* out, std::string* error) {
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
  if (schema == nullptr || !schema->is_string() || schema->string != kProfileSchemaVersion) {
    return fail("not a pvm.profile.v1 document");
  }
  ProfDoc doc;
  if (!obs::json_u64(root.find("dropped_spans"), &doc.dropped_spans)) {
    return fail("malformed dropped_spans");
  }
  const obs::JsonValue* ops = root.find("ops");
  if (ops == nullptr || !ops->is_array()) {
    return fail("missing ops array");
  }
  // False on a path whose numbers are not integers in range.
  const auto parse_paths = [](const obs::JsonValue* array,
                              std::map<std::string, PathStat>* into) {
    if (array == nullptr || !array->is_array()) {
      return true;
    }
    for (const obs::JsonValue& entry : array->array) {
      const obs::JsonValue* path = entry.find("path");
      if (path == nullptr || !path->is_string()) {
        continue;
      }
      PathStat stat;
      if (!obs::json_u64(entry.find("excl_ns"), &stat.exclusive_ns) ||
          !obs::json_u64(entry.find("count"), &stat.count)) {
        return false;
      }
      (*into)[path->string] = stat;
    }
    return true;
  };
  for (const obs::JsonValue& entry : ops->array) {
    const obs::JsonValue* name = entry.find("name");
    const obs::JsonValue* count = entry.find("count");
    const obs::JsonValue* sum = entry.find("sum_ns");
    const obs::JsonValue* min = entry.find("min_ns");
    const obs::JsonValue* max = entry.find("max_ns");
    const obs::JsonValue* buckets = entry.find("buckets");
    OpProfile profile;
    std::uint64_t n = 0, total = 0, lo = 0, hi = 0;
    if (name == nullptr || !name->is_string() || count == nullptr || sum == nullptr ||
        min == nullptr || max == nullptr || buckets == nullptr || !buckets->is_array() ||
        !obs::json_u64(count, &n) || !obs::json_u64(sum, &total) || !obs::json_u64(min, &lo) ||
        !obs::json_u64(max, &hi) ||
        !obs::json_u64(entry.find("tail_threshold_ns"), &profile.tail_threshold_ns) ||
        !obs::json_u64(entry.find("worst_ns"), &profile.worst_ns) ||
        !obs::json_u64(entry.find("worst_begin_ns"), &profile.worst_begin_ns) ||
        !obs::json_i64(entry.find("worst_track"), &profile.worst_track)) {
      return fail("malformed op entry");
    }
    std::map<std::uint32_t, std::uint64_t> parsed;
    for (const obs::JsonValue& pair : buckets->array) {
      std::uint64_t weight = 0;
      if (!pair.is_array() || pair.array.size() != 2 || !pair.array[0].is_number() ||
          !MergeableHistogram::is_bucket_index(pair.array[0].number) ||
          !obs::json_u64(&pair.array[1], &weight)) {
        return fail("malformed bucket pair in op " + name->string);
      }
      parsed[static_cast<std::uint32_t>(pair.array[0].number)] = weight;
    }
    profile.latency = MergeableHistogram::from_parts(n, total, lo, hi, parsed);
    if (!parse_paths(entry.find("paths"), &profile.paths) ||
        !parse_paths(entry.find("tail_paths"), &profile.tail_paths)) {
      return fail("malformed path in op " + name->string);
    }
    doc.ops.emplace(name->string, std::move(profile));
  }
  *out = std::move(doc);
  return true;
}

std::string render_collapsed_stacks(const ProfDoc& doc) {
  std::string out;
  for (const auto& [name, profile] : doc.ops) {
    for (const auto& [path, stat] : profile.paths) {
      // The path's first component repeats the op root; splice the op key (which
      // carries the sweep-coordinate prefix) in its place.
      const std::size_t semi = path.find(';');
      out += name;
      if (semi != std::string::npos) {
        out += path.substr(semi);
      }
      appendf(&out, " %llu\n", static_cast<unsigned long long>(stat.exclusive_ns));
    }
  }
  return out;
}

std::string render_blame(const ProfDoc& doc, const BlameOptions& options) {
  std::string out;
  std::size_t matched = 0;
  for (const auto& [name, profile] : doc.ops) {
    if (!options.filter.empty() && name.find(options.filter) == std::string::npos) {
      continue;
    }
    ++matched;
    out += "op " + name + ": ";
    appendf(&out, "count=%llu p50=%s p99=%s max=%s",
            static_cast<unsigned long long>(profile.latency.count()),
            format_ns(profile.latency.quantile(0.50)).c_str(),
            format_ns(profile.latency.quantile(0.99)).c_str(),
            format_ns(profile.latency.max()).c_str());
    if (profile.worst_track >= 0) {
      appendf(&out, "  worst=%s @t=%llu track=%lld",
              format_ns(profile.worst_ns).c_str(),
              static_cast<unsigned long long>(profile.worst_begin_ns),
              static_cast<long long>(profile.worst_track));
    }
    out += "\n";
    const auto render_paths = [&](const std::map<std::string, PathStat>& paths,
                                  std::string_view header) {
      if (paths.empty()) {
        return;
      }
      std::uint64_t total = 0;
      for (const auto& [path, stat] : paths) {
        total += stat.exclusive_ns;
      }
      // Sort by exclusive time descending; ties break on path name so the
      // table is deterministic.
      std::vector<std::pair<std::string_view, const PathStat*>> rows;
      rows.reserve(paths.size());
      for (const auto& [path, stat] : paths) {
        rows.emplace_back(path, &stat);
      }
      std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
        if (x.second->exclusive_ns != y.second->exclusive_ns) {
          return x.second->exclusive_ns > y.second->exclusive_ns;
        }
        return x.first < y.first;
      });
      out += "  ";
      out += header;
      out += "\n";
      const std::size_t shown = std::min(options.top_k, rows.size());
      for (std::size_t i = 0; i < shown; ++i) {
        const double share =
            total == 0 ? 0.0
                       : 100.0 * static_cast<double>(rows[i].second->exclusive_ns) /
                             static_cast<double>(total);
        appendf(&out, "    %5.1f%% %10s %8llu  ", share,
                format_ns(rows[i].second->exclusive_ns).c_str(),
                static_cast<unsigned long long>(rows[i].second->count));
        // Direct append: span paths can outgrow appendf's fixed buffer.
        out += rows[i].first;
        out += "\n";
      }
      if (rows.size() > shown) {
        appendf(&out, "    ... %llu more paths\n",
                static_cast<unsigned long long>(rows.size() - shown));
      }
    };
    render_paths(profile.paths, "critical-path share (all instances):");
    if (!profile.tail_paths.empty()) {
      std::string header = "tail cohort (latency >= ";
      header += format_ns(profile.tail_threshold_ns);
      header += "):";
      render_paths(profile.tail_paths, header);
    }
    out += "\n";
  }
  if (matched == 0) {
    out += options.filter.empty() ? "no operations recorded\n"
                                  : "no operations match filter \"" + options.filter + "\"\n";
  }
  if (doc.dropped_spans != 0) {
    appendf(&out, "warning: %llu spans dropped at record time; shares are lower bounds\n",
            static_cast<unsigned long long>(doc.dropped_spans));
  }
  return out;
}

}  // namespace pvm::prof
