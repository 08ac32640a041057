#include "bench_util/runner.h"

#include <cmath>
#include <cstdlib>
#include <functional>
#include <iostream>

namespace mate {

namespace {

void Accumulate(QuerySetMetrics* m, const DiscoveryResult& result,
                std::vector<double>* precisions) {
  const DiscoveryStats& s = result.stats;
  m->total_runtime_s += s.runtime_seconds;
  m->pl_items_fetched += s.pl_items_fetched;
  m->rows_checked += s.rows_checked;
  m->rows_sent_to_verification += s.rows_sent_to_verification;
  m->tp_rows += s.rows_true_positive;
  m->fp_rows += s.FalsePositiveRows();
  precisions->push_back(s.Precision());
  m->avg_top1_joinability += static_cast<double>(result.JoinabilityAt(0));
  for (const TableResult& tr : result.top_k) {
    m->topk_score_sum += tr.joinability;
  }
  ++m->queries;
}

void Finalize(QuerySetMetrics* m, const std::vector<double>& precisions) {
  if (m->queries == 0) return;
  m->avg_runtime_s = m->total_runtime_s / static_cast<double>(m->queries);
  m->avg_top1_joinability /= static_cast<double>(m->queries);
  double mean = 0.0;
  for (double p : precisions) mean += p;
  mean /= static_cast<double>(precisions.size());
  double var = 0.0;
  for (double p : precisions) var += (p - mean) * (p - mean);
  var /= static_cast<double>(precisions.size());
  m->avg_precision = mean;
  m->std_precision = std::sqrt(var);
}

/// Folds the index-ordered batch results into QuerySetMetrics
/// (deterministic at any thread count).
QuerySetMetrics FoldBatch(BatchResult batch, std::string label) {
  QuerySetMetrics metrics;
  metrics.label = std::move(label);
  std::vector<double> precisions;
  for (const DiscoveryResult& result : batch.results) {
    Accumulate(&metrics, result, &precisions);
  }
  Finalize(&metrics, precisions);
  metrics.batch = batch.stats;
  return metrics;
}

std::vector<QuerySpec> ToSpecs(const std::vector<QueryCase>& queries,
                               const DiscoveryOptions& options) {
  std::vector<QuerySpec> specs;
  specs.reserve(queries.size());
  for (const QueryCase& qc : queries) {
    QuerySpec spec;
    spec.table = &qc.query;
    spec.key_columns = qc.key_columns;
    spec.options = options;
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace

std::string_view SystemKindName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kMate: return "Mate";
    case SystemKind::kScr: return "SCR";
    case SystemKind::kMcr: return "MCR";
    case SystemKind::kScrJosie: return "SCR Josie";
    case SystemKind::kMcrJosie: return "MCR Josie";
  }
  return "?";
}

Result<QuerySetMetrics> RunSystem(SystemKind kind, Session& session,
                                  const JosieIndex* josie,
                                  const std::vector<QueryCase>& queries,
                                  int k, std::string label) {
  if (kind == SystemKind::kMate) {
    DiscoveryOptions options;
    options.k = k;
    return RunMateWithOptions(session, queries, options, std::move(label));
  }

  const Corpus* corpus = &session.corpus();
  const InvertedIndex* index = &session.index();
  DiscoveryOptions options;
  options.k = k;
  JosieOptions josie_options;
  josie_options.k = k;

  std::function<DiscoveryResult(size_t)> run_one;
  switch (kind) {
    case SystemKind::kMate:
      break;  // handled above
    case SystemKind::kScr:
      run_one = [corpus, index, &queries, options](size_t i) {
        ScrSearch engine(corpus, index);
        return engine.Discover(queries[i].query, queries[i].key_columns,
                               options);
      };
      break;
    case SystemKind::kMcr:
      run_one = [corpus, index, &queries, options](size_t i) {
        McrSearch engine(corpus, index);
        return engine.Discover(queries[i].query, queries[i].key_columns,
                               options);
      };
      break;
    case SystemKind::kScrJosie:
      run_one = [corpus, index, josie, &queries, josie_options](size_t i) {
        ScrJosieSearch engine(corpus, index, josie);
        return engine.Discover(queries[i].query, queries[i].key_columns,
                               josie_options);
      };
      break;
    case SystemKind::kMcrJosie:
      run_one = [corpus, index, josie, &queries, josie_options](size_t i) {
        McrJosieSearch engine(corpus, index, josie);
        return engine.Discover(queries[i].query, queries[i].key_columns,
                               josie_options);
      };
      break;
  }
  return FoldBatch(session.RunBatch(queries.size(), run_one),
                   std::move(label));
}

Result<QuerySetMetrics> RunMateWithOptions(
    Session& session, const std::vector<QueryCase>& queries,
    const DiscoveryOptions& options, std::string label) {
  MATE_ASSIGN_OR_RETURN(BatchResult batch,
                        session.DiscoverBatch(ToSpecs(queries, options)));
  return FoldBatch(std::move(batch), std::move(label));
}

QuerySetMetrics RunOrDie(Result<QuerySetMetrics> result) {
  if (!result.ok()) {
    std::cerr << "query-set run failed: " << result.status().ToString()
              << "\n";
    std::exit(1);
  }
  return std::move(result).value();
}

bool SameTopK(const std::vector<DiscoveryResult>& a,
              const std::vector<DiscoveryResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].top_k.size() != b[q].top_k.size()) return false;
    for (size_t i = 0; i < a[q].top_k.size(); ++i) {
      if (a[q].top_k[i].table_id != b[q].top_k[i].table_id ||
          a[q].top_k[i].joinability != b[q].top_k[i].joinability ||
          a[q].top_k[i].best_mapping != b[q].top_k[i].best_mapping) {
        return false;
      }
    }
  }
  return true;
}

Session OpenOrDie(SessionOptions options) {
  auto session = Session::Open(std::move(options));
  if (!session.ok()) {
    std::cerr << "Session::Open failed: " << session.status().ToString()
              << "\n";
    std::exit(1);
  }
  // Benches time queries, not warmup: drain the phased index load and
  // materialize the lazy corpus for the cell readers (JOSIE, the
  // brute-force oracle), surfacing deferred load corruption, before the
  // first measured Discover. cold_start and memory_budget, which measure
  // residency, open their sessions by hand.
  if (Status ready = session->WaitUntilReady(); !ready.ok()) {
    std::cerr << "Session load failed: " << ready.ToString() << "\n";
    std::exit(1);
  }
  if (Status resident = session->WaitCorpusResident(); !resident.ok()) {
    std::cerr << "Corpus load failed: " << resident.ToString() << "\n";
    std::exit(1);
  }
  return std::move(session).value();
}

}  // namespace mate
