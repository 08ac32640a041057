#include "index/index_builder.h"

#include <cstdint>
#include <sstream>
#include <string>

#include "util/char_frequency.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace mate {

namespace {

// What the one corpus scan yields: the dictionary, the value id of every
// live cell in (table, row, column) order (32 bits, like the other ids, to
// keep the build's peak memory down), the number of cells per value id,
// and the corpus statistics.
struct CorpusScan {
  ValueDictionary dictionary;
  PageVector<uint32_t> cell_values;
  std::vector<uint64_t> list_sizes;
  CorpusStats stats;
};

Result<CorpusScan> ScanCorpus(const Corpus& corpus) {
  CorpusScan scan;
  CorpusStats& stats = scan.stats;
  size_t live_cells = 0;
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    live_cells +=
        corpus.table_num_live_rows(t) * corpus.table_num_columns(t);
  }
  scan.cell_values.reserve(live_cells);
  stats.num_tables = corpus.NumTables();
  std::string buffer;
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    const Table& table = corpus.table(t);
    stats.num_columns += table.NumColumns();
    stats.num_rows += table.NumLiveRows();
    for (RowId r = 0; r < table.NumRows(); ++r) {
      if (table.IsRowDeleted(r)) continue;
      for (ColumnId c = 0; c < table.NumColumns(); ++c) {
        const ValueId id = scan.dictionary.GetOrAdd(
            NormalizedView(table.cell(r, c), &buffer));
        if (id == kInvalidValueId) {
          return Status::InvalidArgument(
              "more than " + std::to_string(ValueDictionary::kMaxSize) +
              " distinct values in the corpus");
        }
        if (id == scan.list_sizes.size()) scan.list_sizes.push_back(0);
        ++scan.list_sizes[id];
        scan.cell_values.push_back(static_cast<uint32_t>(id));
      }
    }
  }
  // Character counts per cell, summed per distinct value.
  for (ValueId id = 0; id < scan.dictionary.size(); ++id) {
    CharFrequencyTable::CountCharacters(scan.dictionary.ValueOf(id),
                                        &stats.char_counts,
                                        scan.list_sizes[id]);
  }
  stats.num_cells = scan.cell_values.size();
  stats.num_unique_values = scan.dictionary.size();
  if (stats.num_tables > 0) {
    stats.avg_columns_per_table =
        static_cast<double>(stats.num_columns) / stats.num_tables;
    stats.avg_rows_per_table =
        static_cast<double>(stats.num_rows) / stats.num_tables;
  }
  return scan;
}

// Counting sort of the scanned cells on value id. The scan visited cells
// in (table, row, column) order, so every list comes out sorted. Reads the
// corpus shape only.
PostingArena LayOutPostings(const Corpus& corpus, const CorpusScan& scan) {
  PostingArena arena;
  arena.offsets.resize(scan.list_sizes.size() + 1);
  for (size_t id = 0; id < scan.list_sizes.size(); ++id) {
    arena.offsets[id + 1] = arena.offsets[id] + scan.list_sizes[id];
  }
  arena.entries.resize(scan.cell_values.size());
  std::vector<uint64_t> next(arena.offsets.begin(), arena.offsets.end() - 1);
  const uint32_t* cell_value = scan.cell_values.data();
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    const Table& table = corpus.table(t);
    for (RowId r = 0; r < table.NumRows(); ++r) {
      if (table.IsRowDeleted(r)) continue;
      for (ColumnId c = 0; c < table.NumColumns(); ++c) {
        arena.entries[next[*cell_value++]++] = PostingEntry{t, c, r};
      }
    }
  }
  return arena;
}

}  // namespace

std::string IndexBuildReport::ToString() const {
  std::ostringstream os;
  os << "build=" << build_seconds << "s (stats scan " << stats_scan_seconds
     << "s), postings=" << posting_entries << " (" << posting_bytes
     << " B), dict=" << dictionary_bytes << " B, superkeys=" << superkey_bytes
     << " B per-row (" << superkey_bytes_per_cell_layout << " B per-cell)";
  return os.str();
}

Result<std::unique_ptr<InvertedIndex>> BuildIndex(
    const Corpus& corpus, const IndexBuildOptions& options) {
  IndexBuildReport report;
  return BuildIndexWithReport(corpus, options, &report);
}

Result<std::unique_ptr<InvertedIndex>> BuildIndexWithReport(
    const Corpus& corpus, const IndexBuildOptions& options,
    IndexBuildReport* report) {
  if (options.hash_bits == 0 || options.hash_bits % 64 != 0 ||
      options.hash_bits > BitVector::kMaxBits) {
    return Status::InvalidArgument(
        "hash_bits must be a positive multiple of 64, at most 512");
  }

  Stopwatch scan_timer;
  MATE_ASSIGN_OR_RETURN(CorpusScan scan, ScanCorpus(corpus));
  report->corpus_stats =
      options.use_corpus_stats ? scan.stats : CorpusStats();
  report->stats_scan_seconds = scan_timer.ElapsedSeconds();

  std::unique_ptr<RowHashFunction> hash =
      MakeRowHash(options.hash_family, options.hash_bits,
                  options.use_corpus_stats ? &scan.stats : nullptr);
  if (hash == nullptr) {
    return Status::InvalidArgument("unknown hash family");
  }

  Stopwatch build_timer;
  PostingArena postings = LayOutPostings(corpus, scan);
  scan.cell_values = PageVector<uint32_t>();
  std::vector<uint64_t> rows_per_table(corpus.NumTables());
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    rows_per_table[t] = corpus.table_num_rows(t);
  }
  auto index = std::make_unique<InvertedIndex>(
      std::move(hash), std::move(scan.dictionary), std::move(postings),
      rows_per_table);
  index->RebuildSuperKeys(options.num_threads);
  report->build_seconds = build_timer.ElapsedSeconds();
  report->posting_entries = index->NumPostingEntries();
  report->posting_bytes = index->PostingBytes();
  report->dictionary_bytes = index->dictionary().MemoryBytes();
  report->superkey_bytes = index->SuperKeyBytes();
  report->superkey_bytes_per_cell_layout =
      report->posting_entries * (options.hash_bits / 8);
  return index;
}

}  // namespace mate
