// Quickstart: index a tiny corpus and discover n-ary joinable tables.
//
// This walks the paper's Figure 1 running example end to end through
// mate::Session, the library's front door:
//   1. build a corpus (the data lake),
//   2. open a Session that builds the MATE index (inverted index + XASH
//      super keys) and owns it together with the thread pool and cache,
//   3. ask for the top-k tables joinable with a query table on the
//      composite key <F. Name, L. Name, Country>.
//
//   4. persist the pair and reopen it *phased*: Open returns while the
//      mmap'd postings and super keys stream in on a loader thread, and the
//      first Discover blocks on the readiness latch — same results,
//      servable process long before the index is hot.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <string>

#include "core/session.h"

using namespace mate;  // NOLINT: example brevity

int main() {
  // ---- 1. The data lake --------------------------------------------
  Corpus corpus;

  Table t1("people_de");  // the paper's candidate table T1
  t1.AddColumn("Vorname");
  t1.AddColumn("Nachname");
  t1.AddColumn("Land");
  t1.AddColumn("Besetzung");
  (void)t1.AppendRow({"Helmut", "Newton", "Germany", "Photographer"});
  (void)t1.AppendRow({"Muhammad", "Lee", "US", "Dancer"});
  (void)t1.AppendRow({"Ansel", "Adams", "UK", "Dancer"});
  (void)t1.AppendRow({"Ansel", "Adams", "US", "Photographer"});
  (void)t1.AppendRow({"Muhammad", "Ali", "US", "Boxer"});
  (void)t1.AppendRow({"Muhammad", "Lee", "Germany", "Birder"});
  (void)t1.AppendRow({"Gretchen", "Lee", "Germany", "Artist"});
  (void)t1.AppendRow({"Adam", "Sandler", "US", "Actor"});
  corpus.AddTable(std::move(t1));

  Table t2("partial_match");
  t2.AddColumn("first");
  t2.AddColumn("last");
  t2.AddColumn("country");
  (void)t2.AppendRow({"Muhammad", "Lee", "US"});
  (void)t2.AppendRow({"Helmut", "Newton", "Germany"});
  (void)t2.AppendRow({"Grace", "Hopper", "US"});
  corpus.AddTable(std::move(t2));

  Table t3("values_but_no_combos");
  t3.AddColumn("a");
  t3.AddColumn("b");
  t3.AddColumn("c");
  (void)t3.AppendRow({"Muhammad", "Newton", "UK"});
  (void)t3.AppendRow({"Ansel", "Lee", "Germany"});
  corpus.AddTable(std::move(t3));

  // ---- 2. Open the discovery service (Figure 2, left) ----------------
  SessionOptions session_options;
  session_options.corpus = std::move(corpus);
  session_options.build_index = true;    // XASH, 128 bits, corpus-tuned
  auto session = Session::Open(std::move(session_options));
  if (!session.ok()) {
    std::fprintf(stderr, "Session::Open failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  std::printf("Indexed corpus: %s\n",
              session->corpus_stats().ToString().c_str());
  std::printf("Index: %s\n\n", session->build_report().ToString().c_str());

  // ---- 3. Online discovery (Algorithm 1) ----------------------------
  Table query("d");
  query.AddColumn("F. Name");
  query.AddColumn("L. Name");
  query.AddColumn("Country");
  query.AddColumn("Salary");
  (void)query.AppendRow({"Muhammad", "Lee", "US", "60k"});
  (void)query.AppendRow({"Ansel", "Adams", "UK", "50k"});
  (void)query.AppendRow({"Ansel", "Adams", "US", "400k"});
  (void)query.AppendRow({"Muhammad", "Lee", "Germany", "90k"});
  (void)query.AppendRow({"Helmut", "Newton", "Germany", "300k"});

  QuerySpec spec;
  spec.table = &query;
  spec.key_columns = {0, 1, 2};
  spec.options.k = 5;
  auto discovered = session->Discover(spec);
  if (!discovered.ok()) {  // malformed specs fail loudly, before any work
    std::fprintf(stderr, "Discover failed: %s\n",
                 discovered.status().ToString().c_str());
    return 1;
  }
  const DiscoveryResult& result = *discovered;
  const Corpus& lake = session->corpus();

  std::printf("Top joinable tables for key <F. Name, L. Name, Country>:\n");
  for (const TableResult& tr : result.top_k) {
    std::printf("  %-22s joinability=%lld  mapping:",
                lake.table(tr.table_id).name().c_str(),
                static_cast<long long>(tr.joinability));
    for (size_t i = 0; i < tr.best_mapping.size(); ++i) {
      std::printf(" %s->%s",
                  query.column_name(static_cast<ColumnId>(i)).c_str(),
                  lake.table(tr.table_id)
                      .column_name(tr.best_mapping[i])
                      .c_str());
    }
    std::printf("\n");
  }
  std::printf("\nDiscovery stats: %s\n", result.stats.ToString().c_str());
  std::printf(
      "\nThe super-key row filter sent %llu of %llu fetched rows to "
      "verification (precision %.2f) — that pruning is the paper's core "
      "contribution.\n",
      static_cast<unsigned long long>(result.stats.rows_sent_to_verification),
      static_cast<unsigned long long>(result.stats.rows_checked),
      result.stats.Precision());

  // ---- 4. Cold start: save, then reopen phased ----------------------
  const std::string corpus_path = "/tmp/mate_quickstart.corpus";
  const std::string index_path = "/tmp/mate_quickstart.index";
  if (auto s = session->Save(corpus_path, index_path); !s.ok()) {
    std::fprintf(stderr, "Save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  SessionOptions reopen;
  reopen.corpus_path = corpus_path;
  reopen.index_path = index_path;
  reopen.num_threads = 2;  // the discovery pool; phase 2 has its own thread
  auto served = Session::Open(std::move(reopen));
  if (!served.ok()) {
    std::fprintf(stderr, "reopen failed: %s\n",
                 served.status().ToString().c_str());
    return 1;
  }
  std::printf("\nReopened from disk; index %s at Open return.\n",
              served->index_ready() ? "already warm" : "still warming");
  auto again = served->Discover(spec);  // blocks on the readiness latch
  if (!again.ok()) {
    std::fprintf(stderr, "Discover after reopen failed: %s\n",
                 again.status().ToString().c_str());
    return 1;
  }
  bool same = again->top_k.size() == result.top_k.size();
  for (size_t i = 0; same && i < result.top_k.size(); ++i) {
    same = again->top_k[i].table_id == result.top_k[i].table_id &&
           again->top_k[i].joinability == result.top_k[i].joinability;
  }
  std::printf("First post-reopen Discover returned %zu tables (%s the "
              "in-memory session's answer).\n",
              again->top_k.size(), same ? "matching" : "DIFFERENT FROM");
  std::remove(corpus_path.c_str());
  std::remove(index_path.c_str());
  return same ? 0 : 1;
}
