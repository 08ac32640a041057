// Offline indexing (Figure 2, left): scans a corpus, builds the inverted
// index and per-row super keys, and reports build cost and size — the
// quantities behind the §7.1 "Index generation" discussion.
//
// The build reads the corpus once. That scan normalizes and interns every
// live cell a single time, in (table, row, column) order, so dictionary ids
// are first-appearance ids, and it counts every CorpusStats field on the
// way. A counting sort on value id then lays the postings out in the CSR
// arena (inverted_index.h), and the super keys come from hashing each
// distinct value once (InvertedIndex::RebuildSuperKeys).

#ifndef MATE_INDEX_INDEX_BUILDER_H_
#define MATE_INDEX_INDEX_BUILDER_H_

#include <memory>
#include <string>

#include "hash/hash_registry.h"
#include "index/inverted_index.h"
#include "storage/corpus.h"
#include "util/status.h"

namespace mate {

struct IndexBuildOptions {
  size_t hash_bits = 128;
  HashFamily hash_family = HashFamily::kXash;

  /// When true (default), a corpus scan parameterizes the hash: XASH alpha
  /// via Eq. 5 and measured character frequencies; Bloom hash count via the
  /// average column count V.
  bool use_corpus_stats = true;

  /// Worker threads for the super-key pass, which hashes each distinct
  /// value once and ORs its signature into the rows its list names; the
  /// workers split the values. The corpus scan and the posting layout stay
  /// serial, which keeps dictionary ids deterministic. 0 uses the hardware
  /// concurrency; 1 builds fully serially. The built index is bit-identical
  /// regardless of thread count.
  unsigned num_threads = 1;
};

struct IndexBuildReport {
  /// The scan's statistics; left empty when use_corpus_stats is false.
  CorpusStats corpus_stats;
  /// The one corpus scan: normalizing, interning and counting every cell.
  double stats_scan_seconds = 0.0;
  /// The rest of the build: the posting layout and the super keys. The two
  /// times add up to the whole build.
  double build_seconds = 0.0;
  size_t posting_entries = 0;
  size_t posting_bytes = 0;
  size_t dictionary_bytes = 0;
  size_t superkey_bytes = 0;
  /// Bytes the paper's per-cell super-key layout would use (§7.1 compares
  /// per-cell vs per-row storage).
  size_t superkey_bytes_per_cell_layout = 0;

  std::string ToString() const;
};

/// Builds an index over `corpus`.
Result<std::unique_ptr<InvertedIndex>> BuildIndex(
    const Corpus& corpus, const IndexBuildOptions& options);

/// Same, also filling `*report`.
Result<std::unique_ptr<InvertedIndex>> BuildIndexWithReport(
    const Corpus& corpus, const IndexBuildOptions& options,
    IndexBuildReport* report);

}  // namespace mate

#endif  // MATE_INDEX_INDEX_BUILDER_H_
