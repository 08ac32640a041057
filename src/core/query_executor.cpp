#include "core/query_executor.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "index/index_shards.h"
#include "util/page_allocator.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace mate {

namespace {

// One init value's posting entries inside one candidate table: entries
// [begin, begin + count) of that value's list, rows ascending. The row
// loop reads them in place.
struct PostingRun {
  const PostingEntry* begin;
  uint32_t count;
  uint32_t value_idx;  // into PreparedQuery::posting_lists
};

// One candidate table: its runs are ShardCandidates::runs[first_run,
// first_run + num_runs), in init-value order, holding num_items entries.
struct TableCandidates {
  TableId table_id;
  uint32_t num_runs;
  size_t first_run;
  size_t num_items;
};

// A shard's posting runs, grouped by table in one buffer, and its
// candidate tables in evaluation order. The buffer's pages come from the
// OS (util/page_allocator.h): a query allocates and frees one such buffer
// per shard, and a freed heap buffer of that size would raise glibc's mmap
// threshold for every thread.
//
// With the semi-join on, presence[i * presence_words, (i + 1) *
// presence_words) holds candidate tables[i]'s bit of every rare value
// (PreparedQuery::rare_lists): clear only if the table lacks it. The
// bits come from the heap: a few KB on most queries (at most 67 KB on
// perfbench's lakes), where a fresh mapping's page faults would cost more
// than setting them.
struct ShardCandidates {
  PageVector<PostingRun> runs;
  std::vector<TableCandidates> tables;
  size_t presence_words = 0;
  std::vector<uint64_t> presence;
};

// Query-side state of Algorithm 1's initialization (§6.1, lines 3-6),
// computed once and read concurrently by every shard task.
struct PreparedQuery {
  size_t init_pos = 0;
  /// The PL items the init values' lists hold: what the fetch reads over
  /// all shards, and the auto-parallel gate's figure.
  uint64_t pl_items = 0;
  /// combo_keys[c * key_words, (c + 1) * key_words) is combo c's super key.
  size_t key_words = 0;
  std::vector<uint64_t> combo_keys;
  /// combo_lists[c] holds the posting lists of combo c's values, which the
  /// verifier probes instead of cells.
  std::vector<ComboPostings> combo_lists;
  /// Per distinct init value, in first-appearance order: its posting list
  /// and the combos holding it at the init position (Alg. 1 line 6).
  std::vector<PostingSpan> posting_lists;
  std::vector<std::vector<uint32_t>> combos_of_value;
  std::unordered_set<TableId> excluded;
  std::unordered_set<TableId> restricted;
  /// The semi-join (DiscoveryOptions::use_semi_join): combo c can only
  /// match in a table that posts its rarest non-init value, the one with
  /// the shortest posting list, which is rare_lists[rare_bit[c]].
  bool semi_join = false;
  std::vector<uint32_t> rare_bit;
  std::vector<PostingSpan> rare_lists;
};

// The init value of every combo as a slot into the distinct init values,
// which are appended to `*init_values` (value ids, in first-appearance
// order): Alg. 1 line 4's probe set.
std::vector<uint32_t> InitSlots(const KeyCombos& combos, size_t init_pos,
                                std::vector<uint32_t>* init_values) {
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> slot_of_value(combos.values.size(), kNone);
  std::vector<uint32_t> slots(combos.size());
  for (size_t c = 0; c < combos.size(); ++c) {
    const uint32_t id = combos.combo(c)[init_pos];
    if (slot_of_value[id] == kNone) {
      slot_of_value[id] = static_cast<uint32_t>(init_values->size());
      init_values->push_back(id);
    }
    slots[c] = slot_of_value[id];
  }
  return slots;
}

PreparedQuery PrepareQuery(const Table& query,
                           const std::vector<ColumnId>& key_columns,
                           const DiscoveryOptions& options,
                           const InvertedIndex& index) {
  PreparedQuery prep;
  const KeyCombos combos = InternKeyCombos(query, key_columns);
  // One index probe per distinct key value. The lists rank the key
  // positions by the PL items they fetch (§7.5.4), the semi-join reads
  // their lengths, and the verifier probes them instead of cells.
  const std::vector<PostingSpan> lists = ProbeKeyValues(combos, index);
  const std::vector<uint64_t> pl_items = PlItemsPerPosition(combos, lists);
  prep.init_pos = SelectInitColumn(query, key_columns, combos,
                                   options.init_strategy, &pl_items);
  prep.pl_items = pl_items[prep.init_pos];

  // One signature per distinct value a combo holds, on first use (values
  // only in dropped rows are never hashed). A combo's super key is the OR
  // of its values' signatures: RowHashFunction::AddValue ORs a signature
  // that depends on the value alone, which is what MakeSuperKey and
  // RebuildSuperKeys compute too.
  std::vector<BitVector> signatures(combos.values.size());  // empty: unseen
  const size_t words = index.superkeys().words_per_key();
  prep.key_words = words;
  prep.combo_keys.assign(combos.size() * words, 0);
  prep.combo_lists.resize(combos.size());
  for (uint32_t c = 0; c < combos.size(); ++c) {
    const uint32_t* ids = combos.combo(c);
    uint64_t* key = &prep.combo_keys[c * words];
    prep.combo_lists[c].reserve(combos.width);
    for (size_t i = 0; i < combos.width; ++i) {
      const uint32_t id = ids[i];
      if (signatures[id].empty()) {
        signatures[id] = index.hash().HashValue(combos.values.ValueOf(id));
      }
      prep.combo_lists[c].push_back(lists[id]);
      const uint64_t* signature = signatures[id].words();
      for (size_t w = 0; w < words; ++w) key[w] |= signature[w];
    }
  }
  std::vector<uint32_t> init_values;
  const std::vector<uint32_t> slots =
      InitSlots(combos, prep.init_pos, &init_values);
  for (const uint32_t id : init_values) {
    prep.posting_lists.push_back(lists[id]);
  }
  prep.combos_of_value.resize(init_values.size());
  for (uint32_t c = 0; c < combos.size(); ++c) {
    prep.combos_of_value[slots[c]].push_back(c);
  }

  // A combo of one value has no value to test beyond the run's own.
  prep.semi_join = options.use_row_filter && options.use_semi_join &&
                   combos.width > 1;
  if (prep.semi_join) {
    constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
    std::vector<uint32_t> bit_of_value(combos.values.size(), kNone);
    prep.rare_bit.resize(combos.size());
    for (uint32_t c = 0; c < combos.size(); ++c) {
      const uint32_t* ids = combos.combo(c);
      uint32_t rarest = kNone;
      for (size_t i = 0; i < combos.width; ++i) {
        if (i != prep.init_pos &&
            (rarest == kNone || lists[ids[i]].size() < lists[rarest].size())) {
          rarest = ids[i];
        }
      }
      if (bit_of_value[rarest] == kNone) {
        bit_of_value[rarest] = static_cast<uint32_t>(prep.rare_lists.size());
        prep.rare_lists.push_back(lists[rarest]);
      }
      prep.rare_bit[c] = bit_of_value[rarest];
    }
  }

  prep.excluded.insert(options.exclude_tables.begin(),
                       options.exclude_tables.end());
  prep.restricted.insert(options.restrict_tables.begin(),
                         options.restrict_tables.end());
  return prep;
}

// The prepare span's args: which key position the query fetches, by what
// rule, and how many PL items that costs.
std::string InitColumnArgs(const PreparedQuery& prep,
                           const std::vector<ColumnId>& key_columns,
                           InitColumnStrategy strategy) {
  return "\"init_pos\":" + std::to_string(prep.init_pos) +
         ",\"init_column\":" + std::to_string(key_columns[prep.init_pos]) +
         ",\"init_strategy\":\"" +
         std::string(InitColumnStrategyName(strategy)) +
         "\",\"pl_items\":" + std::to_string(prep.pl_items);
}

// One shard's (or one seed table's) private evaluation state: local heap,
// local mappings, local counters. Never touched by another task; merged in
// a fixed order afterwards.
struct ShardOutcome {
  explicit ShardOutcome(size_t k) : topk(k) {}

  TopKHeap<TableId> topk;
  std::unordered_map<TableId, std::vector<ColumnId>> best_mappings;
  DiscoveryStats stats;
};

// A run that reaches e[kLongRun] is long: RunEnd leaves it by an
// exponential search instead of stepping.
constexpr ptrdiff_t kLongRun = 8;

bool LongRun(const PostingEntry* e, const PostingEntry* end) {
  return end - e > kLongRun && e[kLongRun].table_id == e->table_id;
}

// End of the run that starts at `e` in a list slice ending at `end`: the
// entries of e's table.
const PostingEntry* RunEnd(const PostingEntry* e, const PostingEntry* end) {
  const TableId table_id = e->table_id;
  if (!LongRun(e, end)) {
    while (++e != end && e->table_id == table_id) {
    }
    return e;
  }
  // e[step] is in the run; double the step until it is not (or the slice
  // ends), then search the last stretch.
  ptrdiff_t step = kLongRun;
  while (step < end - e && e[step].table_id == table_id) {
    e += step;
    step *= 2;
  }
  const PostingEntry* const hi = step < end - e ? e + step : end;
  return std::upper_bound(e, hi, table_id,
                          [](TableId t, const PostingEntry& entry) {
                            return t < entry.table_id;
                          });
}

// The slice of `list` that falls in the table range [range.begin,
// range.end): the whole list, without a search, when it lies inside.
PostingSpan ShardSlice(PostingSpan list, const ShardRange& range) {
  if (list.empty() || (list.front().table_id >= range.begin &&
                       list.back().table_id < range.end)) {
    return list;
  }
  const auto by_table_id = [](const PostingEntry& e, TableId t) {
    return e.table_id < t;
  };
  const auto lo =
      std::lower_bound(list.begin(), list.end(), range.begin, by_table_id);
  const auto hi = std::lower_bound(lo, list.end(), range.end, by_table_id);
  return PostingSpan(lo, static_cast<size_t>(hi - lo));
}

// Fetches the shard's slice of every probed posting list (Alg. 1 lines 4-5
// restricted to [range.begin, range.end)) and groups the slices' runs by
// table with one counting sort on table id. Postings are sorted by
// (table_id, row, column), so the slice is one contiguous stretch per PL
// and each table's entries in it are one run. The scatter walks the
// slices in the order the count did, so each table's runs keep their
// arrival order: by init value, rows ascending within a run. With the
// semi-join on, it then marks which candidates post each rare value.
ShardCandidates FetchShardCandidates(const PreparedQuery& prep,
                                     const ShardRange& range,
                                     DiscoveryStats* stats) {
  std::vector<PostingSpan> slices(prep.posting_lists.size());
  // slot[t - range.begin] is first table t's run count, then its index in
  // the candidate list, or kDropped for an excluded (or not restricted-to)
  // table.
  constexpr uint32_t kDropped = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> slot(range.end - range.begin, 0);
  for (size_t v = 0; v < slices.size(); ++v) {
    slices[v] = ShardSlice(prep.posting_lists[v], range);
    stats->pl_items_fetched += slices[v].size();
    const PostingEntry* const end = slices[v].end();
    for (const PostingEntry* e = slices[v].begin(); e != end;
         e = RunEnd(e, end)) {
      ++slot[e->table_id - range.begin];
    }
  }

  ShardCandidates out;
  size_t total = 0;
  for (size_t i = 0; i < slot.size(); ++i) {
    if (slot[i] == 0) continue;
    const TableId table_id = range.begin + static_cast<TableId>(i);
    if (prep.excluded.count(table_id) ||
        (!prep.restricted.empty() && !prep.restricted.count(table_id))) {
      slot[i] = kDropped;
      continue;
    }
    out.tables.push_back({table_id, 0, total, 0});
    total += slot[i];
    slot[i] = static_cast<uint32_t>(out.tables.size() - 1);
  }
  stats->candidate_tables += out.tables.size();

  out.runs.resize(total);
  for (size_t v = 0; v < slices.size(); ++v) {
    const PostingEntry* const end = slices[v].end();
    for (const PostingEntry* e = slices[v].begin(); e != end;) {
      const PostingEntry* const run_end = RunEnd(e, end);
      const uint32_t idx = slot[e->table_id - range.begin];
      if (idx != kDropped) {
        TableCandidates& table = out.tables[idx];
        const auto count = static_cast<uint32_t>(run_end - e);
        out.runs[table.first_run + table.num_runs++] = {
            e, count, static_cast<uint32_t>(v)};
        table.num_items += count;
      }
      e = run_end;
    }
  }

  // Evaluate promising tables first: PL-item count desc, table id asc.
  std::sort(out.tables.begin(), out.tables.end(),
            [](const TableCandidates& a, const TableCandidates& b) {
              if (a.num_items != b.num_items) return a.num_items > b.num_items;
              return a.table_id < b.table_id;
            });

  // The semi-join's presence bits, one row per candidate in evaluation
  // order plus a sink row that every other table of the shard writes to.
  // A rare value's list is walked once, entry by entry, each entry setting
  // its table's bit; a long run is jumped past after its first entry. A
  // list holding more than kMaxEntriesPerCandidate entries per candidate
  // is not walked: its value is taken as posted by every candidate, which
  // can only keep a combo the walk would have dropped. Such a value is
  // nearly always posted by every candidate anyway (on perfbench's lakes
  // the bound moves rows_checked by under 0.1%), and the walk is bound by
  // reading the list: 3-4 ns an entry.
  constexpr size_t kMaxEntriesPerCandidate = 8;
  if (prep.semi_join && !out.tables.empty()) {
    const auto sink = static_cast<uint32_t>(out.tables.size());
    std::fill(slot.begin(), slot.end(), sink);
    for (uint32_t i = 0; i < sink; ++i) {
      slot[out.tables[i].table_id - range.begin] = i;
    }
    const size_t words = (prep.rare_lists.size() + 63) / 64;
    out.presence_words = words;
    out.presence.assign((out.tables.size() + 1) * words, 0);
    for (size_t r = 0; r < prep.rare_lists.size(); ++r) {
      const PostingSpan list = ShardSlice(prep.rare_lists[r], range);
      uint64_t* const column = out.presence.data() + r / 64;
      const uint64_t bit = uint64_t{1} << (r % 64);
      if (list.size() > kMaxEntriesPerCandidate * sink) {
        for (uint32_t i = 0; i < sink; ++i) column[i * words] |= bit;
        continue;
      }
      for (const PostingEntry* e = list.begin(); e != list.end();) {
        column[slot[e->table_id - range.begin] * words] |= bit;
        e = LongRun(e, list.end()) ? RunEnd(e, list.end()) : e + 1;
      }
    }
  }
  return out;
}

// A run the row loop walks: its entries, and the combos it tests them
// against, which are those of the run's init value the semi-join kept.
struct LiveRun {
  const PostingEntry* begin;
  uint32_t count;
  uint32_t num_combos;
  const uint32_t* combos;
};

// The row loop's look-ahead: a cursor over a table's live runs, entry by
// entry, kept kPrefetchDistance entries ahead of the loop so that each
// row's super key is on its way to the cache before the loop probes it.
class PrefetchCursor {
 public:
  static constexpr int kPrefetchDistance = 8;

  PrefetchCursor(const SuperKeyStore& superkeys, TableId table_id,
                 const LiveRun* run, const LiveRun* runs_end)
      : superkeys_(superkeys),
        table_id_(table_id),
        run_(run),
        runs_end_(runs_end),
        entry_(run != runs_end ? run->begin : nullptr) {
    for (int i = 0; i < kPrefetchDistance; ++i) Step();
  }

  // Prefetches the next entry's super key and moves past it.
  void Step() {
    if (entry_ == nullptr) return;
    __builtin_prefetch(superkeys_.RowWords(table_id_, entry_->row_id));
    if (++entry_ == run_->begin + run_->count) {
      entry_ = ++run_ != runs_end_ ? run_->begin : nullptr;
    }
  }

 private:
  const SuperKeyStore& superkeys_;
  TableId table_id_;
  const LiveRun* run_;
  const LiveRun* runs_end_;
  const PostingEntry* entry_;  // null past the last run
};

// The §6.3 row filter: true iff every set bit of the combo key `q` is set
// in the row's super key, over `words` words.
bool KeyCovers(const uint64_t* q, const uint64_t* row, size_t words) {
  uint64_t missing = 0;
  for (size_t w = 0; w < words; ++w) missing |= q[w] & ~row[w];
  return missing == 0;
}

// Per-table evaluation (Alg. 1 lines 7-22) over shard.tables[start, end)
// with a local heap. §6.2 pruning runs against the better of the local j_k
// and the caller's `floor` — both never exceed the final global j_k (a
// local heap holds the best k of a subset; the floor is the k-th score
// over tables evaluated in earlier rounds), so nothing pruned here could
// have survived the final merge. Returns true iff rule 1 broke out: the
// list is sorted by item count and thresholds only grow, so the shard is
// finished for good (the caller accounts for candidates beyond `end`).
// No floor over the full range is exactly the serial Algorithm 1.
bool EvaluateCandidates(const InvertedIndex& index, const PreparedQuery& prep,
                        const DiscoveryOptions& options,
                        const ShardCandidates& shard, size_t start,
                        size_t end,
                        std::optional<int64_t> floor, ShardOutcome* out,
                        QueryTrace* trace = nullptr,
                        uint32_t trace_parent = QueryTrace::kNoParent,
                        uint64_t trace_tid = 0) {
  DiscoveryStats& stats = out->stats;
  TopKHeap<TableId>& topk = out->topk;
  const SuperKeyStore& superkeys = index.superkeys();
  MappingAccumulator acc;
  VerifyScratch scratch;

  // Best provable score threshold right now (INT64_MIN = none yet).
  const auto prune_threshold = [&topk, floor] {
    int64_t threshold =
        floor.has_value() ? *floor : std::numeric_limits<int64_t>::min();
    if (topk.Full()) threshold = std::max(threshold, topk.KthScore());
    return threshold;
  };

  // The table's runs left to walk, and the combos the semi-join kept for
  // them, back to back. A table's runs hold distinct init values, so they
  // hold each combo at most once: the compaction, which writes each combo
  // at the slot after the last one kept, stays inside one slot per combo.
  std::vector<LiveRun> live;
  std::vector<uint32_t> kept(prep.semi_join ? prep.rare_bit.size() : 0);

  for (size_t cand_idx = start; cand_idx < end; ++cand_idx) {
    const TableCandidates& cand = shard.tables[cand_idx];
    const int64_t items_in_table = static_cast<int64_t>(cand.num_items);

    // Table filter rule 1 (line 9): tables arrive in decreasing PL-item
    // order, so once a table cannot beat the current j_k nothing later can.
    if (options.use_table_filters && items_in_table < prune_threshold()) {
      stats.tables_pruned_rule1 += end - cand_idx;
      if (trace != nullptr) {
        trace->AddCompleteSpan(
            "rule1_prune", trace_parent, trace->NowUs(), 0, trace_tid,
            "\"tables_pruned\":" + std::to_string(end - cand_idx));
      }
      return true;
    }

    // The semi-join keeps, for each run, the combos of its init value whose
    // rarest value has its bit set for the table: no other combo can match
    // a row of it.
    // A run left with none is skipped, and a table whose kept combos cannot
    // beat the current j_k is pruned like rule 1 prunes, without the break.
    live.clear();
    const uint64_t* const present =
        prep.semi_join
            ? shard.presence.data() + cand_idx * shard.presence_words
            : nullptr;
    size_t num_kept = 0;
    int64_t rows_skipped_here = 0;
    const PostingRun* const runs = shard.runs.data() + cand.first_run;
    for (const PostingRun* run = runs; run != runs + cand.num_runs; ++run) {
      const std::vector<uint32_t>& combo_ids =
          prep.combos_of_value[run->value_idx];
      if (present == nullptr) {
        live.push_back({run->begin, run->count,
                        static_cast<uint32_t>(combo_ids.size()),
                        combo_ids.data()});
        continue;
      }
      const size_t first = num_kept;
      for (const uint32_t combo_id : combo_ids) {
        const uint32_t bit = prep.rare_bit[combo_id];
        kept[num_kept] = combo_id;
        num_kept += (present[bit / 64] >> (bit % 64)) & 1;
      }
      if (num_kept == first) {
        rows_skipped_here += run->count;
      } else {
        live.push_back({run->begin, run->count,
                        static_cast<uint32_t>(num_kept - first),
                        kept.data() + first});
      }
    }
    if (present != nullptr && options.use_table_filters &&
        static_cast<int64_t>(num_kept) < prune_threshold()) {
      ++stats.tables_pruned_rule1;
      continue;
    }

    ++stats.tables_evaluated;
    stats.rows_skipped += rows_skipped_here;
    const uint64_t rows_start_us = trace != nullptr ? trace->NowUs() : 0;
    acc.Clear();
    // Skipped entries count as checked and unmatched for rule 2.
    int64_t rows_checked_here = rows_skipped_here;
    int64_t rows_matched_here = 0;  // r_match of rule 2
    bool pruned_mid_table = false;

    // The row loop walks the table's live runs entry by entry, in place.
    // Each entry's row super key is loaded once and tested against the
    // super key of every combo the run kept, while a cursor prefetches the
    // key kPrefetchDistance entries ahead. A combo that passes is verified
    // with the init column bound to the entry itself. Prefetches have no
    // effect on the walk, so rule 2 sees every walked entry in order and
    // every counter advances only for entries walked. Without the row
    // filter no key is read, and the cursor gets no runs to walk.
    const LiveRun* const walk = live.data();
    const LiveRun* const walk_end = walk + live.size();
    PrefetchCursor ahead(superkeys, cand.table_id, walk,
                         options.use_row_filter ? walk_end : walk);
    for (const LiveRun* run = walk; run != walk_end && !pruned_mid_table;
         ++run) {
      const uint32_t* const combos_end = run->combos + run->num_combos;
      const PostingEntry* const run_end = run->begin + run->count;
      for (const PostingEntry* entry = run->begin; entry != run_end;
           ++entry) {
        // Table filter rule 2 (line 14): even if every remaining row is
        // joinable, the table cannot beat the worst top-k entry.
        if (options.use_table_filters &&
            items_in_table - rows_checked_here + rows_matched_here <
                prune_threshold()) {
          ++stats.tables_pruned_rule2;
          pruned_mid_table = true;
          break;
        }
        ++rows_checked_here;
        ++stats.rows_checked;

        const RowId row = entry->row_id;
        const uint64_t* row_key = nullptr;
        if (options.use_row_filter) {
          ahead.Step();
          row_key = superkeys.RowWords(cand.table_id, row);
        }
        bool row_passed_filter = false;
        bool row_matched = false;
        for (const uint32_t* combo = run->combos; combo != combos_end;
             ++combo) {
          const uint32_t combo_id = *combo;
          // Row filter (§6.3, line 18): the combo's super key must be
          // masked by the row's super key.
          if (row_key != nullptr &&
              !KeyCovers(&prep.combo_keys[combo_id * prep.key_words],
                         row_key, prep.key_words)) {
            continue;
          }
          row_passed_filter = true;
          if (VerifyComboInRow(prep.combo_lists[combo_id], cand.table_id,
                               row, combo_id, entry, prep.init_pos, &acc,
                               &stats.value_comparisons, &scratch)) {
            row_matched = true;
          }
        }
        if (row_passed_filter) ++stats.rows_sent_to_verification;
        if (row_matched) ++stats.rows_true_positive;
        // r_match: with the super-key filter the paper counts filter
        // survivors (cheap, optimistic); without it, exact matches.
        if (options.use_row_filter ? row_passed_filter : row_matched) {
          ++rows_matched_here;
        }
      }
    }

    if (trace != nullptr) {
      const uint64_t now = trace->NowUs();
      trace->AddCompleteSpan(
          "row_loop", trace_parent, rows_start_us, now - rows_start_us,
          trace_tid,
          "\"table\":" + std::to_string(cand.table_id) +
              ",\"rows_checked\":" +
              std::to_string(rows_checked_here - rows_skipped_here));
    }
    if (pruned_mid_table) continue;
    if (acc.recounted()) ++stats.tables_recounted;
    const int64_t j = acc.MaxJoinability();
    if (j > 0) {
      if (topk.Add(cand.table_id, j)) {
        out->best_mappings[cand.table_id] = acc.BestMapping();
      }
    }
  }
  return false;
}

// Runs fn(0..n) over min(`fanout`, n) strided ForkJoin indexes; inline when
// the fan-out degenerates. ForkJoin waits for this call's work only, so
// concurrent queries share the pool, and a query that itself runs on one of
// the pool's workers (a batch member) fans out the same way.
void RunStrided(ThreadPool* pool, size_t fanout, size_t n,
                const std::function<void(size_t)>& fn) {
  fanout = std::min(fanout, n);
  if (pool == nullptr || fanout <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->ForkJoin(fanout, [&fn, fanout, n](size_t w) {
    for (size_t i = w; i < n; i += fanout) fn(i);
  });
}

}  // namespace

uint64_t QueryExecutor::EstimatePlItems(
    const Table& query, const std::vector<ColumnId>& key_columns,
    const DiscoveryOptions& options) const {
  if (key_columns.empty() || options.k <= 0) return 0;
  // PrepareQuery's first steps, without the signatures: the same combos,
  // probes and init column, so this is PreparedQuery::pl_items.
  const KeyCombos combos = InternKeyCombos(query, key_columns);
  const std::vector<uint64_t> pl_items =
      PlItemsPerPosition(combos, ProbeKeyValues(combos, *index_));
  return pl_items[SelectInitColumn(query, key_columns, combos,
                                   options.init_strategy, &pl_items)];
}

DiscoveryResult QueryExecutor::Discover(
    const Table& query, const std::vector<ColumnId>& key_columns,
    const DiscoveryOptions& options, const ExecutorOptions& exec,
    ThreadPool* pool) const {
  Stopwatch timer;
  QueryTrace* const trace = exec.trace;
  const uint32_t troot = exec.trace_parent;
  DiscoveryResult result;
  DiscoveryStats& stats = result.stats;
  if (key_columns.empty() || options.k <= 0) {
    stats.runtime_seconds = timer.ElapsedSeconds();
    return result;
  }
  const size_t k = static_cast<size_t>(options.k);

  ScopedSpan prepare_span(trace, "prepare", troot);
  const PreparedQuery prep =
      PrepareQuery(query, key_columns, options, *index_);
  prepare_span.End(trace != nullptr
                       ? InitColumnArgs(prep, key_columns,
                                        options.init_strategy)
                       : std::string());

  // ---- Resolve the execution shape -----------------------------------
  const unsigned pool_width = pool != nullptr ? pool->num_threads() : 1;
  unsigned width = 1;
  if (exec.intra_query_threads == 0) {
    if (pool_width > 1 && prep.pl_items >= kAutoParallelMinItems) {
      width = pool_width;
    }
  } else {
    width = std::min(exec.intra_query_threads, pool_width);
  }
  const size_t requested_shards =
      exec.num_shards != 0 ? exec.num_shards : width;
  // The serial path (every MateSearch::Discover and every query that
  // resolves to one shard) must not pay the O(NumTables) weight walk a
  // real plan costs: one trivial all-tables range is enough.
  std::vector<ShardRange> ranges;
  if (requested_shards <= 1) {
    if (corpus_->NumTables() > 0) {
      ranges.push_back({0, static_cast<TableId>(corpus_->NumTables())});
    }
  } else {
    ranges = IndexShards::Build(*corpus_, requested_shards).ranges();
  }
  const size_t num_shards = ranges.size();  // 0 on an empty corpus

  // ---- Fetch, shard-local --------------------------------------------
  std::vector<ShardOutcome> outcomes;
  outcomes.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) outcomes.emplace_back(k);
  std::vector<ShardCandidates> shard_candidates(num_shards);
  ScopedSpan fetch_span(trace, "fetch", troot);
  RunStrided(pool, width, num_shards, [&](size_t s) {
    // Shard spans render on track s + 1 (track 0 is the query's main line).
    ScopedSpan shard_span(trace, "fetch_shard", fetch_span.id(), s + 1);
    shard_candidates[s] =
        FetchShardCandidates(prep, ranges[s], &outcomes[s].stats);
  });
  fetch_span.End();

  // ---- Round-based evaluation with a shared pruning floor ------------
  // Serial Algorithm 1 prunes against one shared heap whose j_k rises as
  // evaluation proceeds; S isolated local heaps would each have to fill
  // before §6.2 fires and would then prune against much weaker thresholds
  // (at full OD scale that means every candidate table gets evaluated —
  // 2-3x the serial work). Instead the shards advance in lockstep rounds
  // of k candidates each: between rounds, a barrier folds every local heap
  // into one global heap and publishes its k-th score as the shared floor.
  // The floor is exactly the serial heap's j_k over the evaluated prefix —
  // deterministic (round boundaries depend only on the shard plan, never
  // the schedule) and always <= the final j_k, so pruning with it cannot
  // drop a final top-k table. Round one evaluates <= S*k tables unpruned
  // (serial evaluates >= k before its heap fills, typically a comparable
  // number); from round two on, rule 1 usually breaks every shard at once.
  ScopedSpan evaluate_span(trace, "evaluate", troot);
  if (num_shards == 1) {
    EvaluateCandidates(*index_, prep, options, shard_candidates[0], 0,
                       shard_candidates[0].tables.size(),
                       /*floor=*/std::nullopt,
                       &outcomes[0], trace, evaluate_span.id());
  } else if (num_shards > 1) {
    std::vector<size_t> pos(num_shards, 0);
    std::vector<size_t> chunk_end(num_shards, 0);
    // One flag byte per shard, each written by exactly one task per round.
    std::vector<unsigned char> broke(num_shards, 0);
    std::optional<int64_t> floor;
    std::vector<size_t> active;
    // ~k tables across all shards per round — the cadence at which the
    // serial heap's j_k moves. Wider chunks would evaluate whole rounds
    // against a stale floor and forfeit most of rule 2's mid-table cuts;
    // the barrier itself is microseconds against millisecond rounds.
    const size_t chunk =
        std::max<size_t>(1, (k + num_shards - 1) / num_shards);
    while (true) {
      active.clear();
      for (size_t s = 0; s < num_shards; ++s) {
        if (!broke[s] && pos[s] < shard_candidates[s].tables.size()) {
          active.push_back(s);
        }
      }
      if (active.empty()) break;
      RunStrided(pool, width, active.size(), [&](size_t i) {
        const size_t s = active[i];
        ScopedSpan shard_span(trace, "evaluate_shard", evaluate_span.id(),
                              s + 1);
        const ShardCandidates& cands = shard_candidates[s];
        chunk_end[s] = std::min(pos[s] + chunk, cands.tables.size());
        broke[s] = EvaluateCandidates(*index_, prep, options, cands, pos[s],
                                      chunk_end[s], floor, &outcomes[s],
                                      trace, shard_span.id(), s + 1)
                       ? 1
                       : 0;
      });
      TopKHeap<TableId> global(k);
      for (const size_t s : active) {
        if (broke[s]) {
          // Rule 1 terminates the whole shard, not just the chunk.
          outcomes[s].stats.tables_pruned_rule1 +=
              shard_candidates[s].tables.size() - chunk_end[s];
        } else {
          pos[s] = chunk_end[s];
        }
      }
      for (const ShardOutcome& out : outcomes) {
        for (const auto& entry : out.topk.SortedDesc()) {
          global.Add(entry.id, entry.score);
        }
      }
      if (global.Full()) floor = global.KthScore();
    }
  }

  evaluate_span.End();

  // ---- Deterministic merge (score desc, table id asc) ----------------
  // Each local heap holds the best k of its shard, so the union contains
  // the global top-k; re-offering every entry to one heap applies the
  // exact serial tie-break regardless of arrival order.
  ScopedSpan merge_span(trace, "merge", troot);
  const size_t fanout = std::max<size_t>(std::min<size_t>(width, num_shards),
                                         1);
  TopKHeap<TableId> merged(k);
  std::unordered_map<TableId, std::vector<ColumnId>> best_mappings;
  for (ShardOutcome& out : outcomes) {
    stats.Merge(out.stats);
    for (const auto& entry : out.topk.SortedDesc()) {
      merged.Add(entry.id, entry.score);
    }
    for (auto& [table_id, mapping] : out.best_mappings) {
      best_mappings.emplace(table_id, std::move(mapping));
    }
  }
  result.top_k = FinalizeTopK(merged, best_mappings);
  stats.shards_used = num_shards > 0 ? num_shards : 1;
  stats.fanout_threads = fanout;
  stats.runtime_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace mate
