#include "server/protocol.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>
#include <utility>

#include "util/coding.h"
#include "util/stopwatch.h"

namespace mate {

namespace {

constexpr uint8_t kFilterRowBit = 0x01;
constexpr uint8_t kFilterTableBit = 0x02;

// Rebuilds a Status from its wire (code, message) pair. Status keeps its
// code+message constructor private, so dispatch through the factories.
Status StatusFromWire(StatusCode code, std::string message) {
  switch (code) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(message));
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(std::move(message));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case StatusCode::kIOError:
      return Status::IOError(std::move(message));
    case StatusCode::kCorruption:
      return Status::Corruption(std::move(message));
    case StatusCode::kNotSupported:
      return Status::NotSupported(std::move(message));
    case StatusCode::kInternal:
      return Status::Internal(std::move(message));
    case StatusCode::kOverloaded:
      return Status::Overloaded(std::move(message));
  }
  return Status::Corruption("unknown status code on the wire");
}

void PutTableIdList(std::string* dst, const std::vector<TableId>& ids) {
  PutVarint64(dst, ids.size());
  for (TableId id : ids) PutVarint32(dst, id);
}

Status GetTableIdList(std::string_view* input, std::string_view what,
                      std::vector<TableId>* ids) {
  uint64_t n = 0;
  if (!GetVarint64(input, &n) || n > input->size()) {
    return Status::InvalidArgument("malformed " + std::string(what) +
                                   " list in query request");
  }
  ids->clear();
  ids->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t id = 0;
    if (!GetVarint32(input, &id)) {
      return Status::InvalidArgument("truncated " + std::string(what) +
                                     " list in query request");
    }
    ids->push_back(id);
  }
  return Status::OK();
}

void EncodeTenantStats(const TenantStats& t, std::string* dst) {
  PutLengthPrefixed(dst, t.tenant);
  PutVarint64(dst, t.requests);
  PutVarint64(dst, t.admitted);
  PutVarint64(dst, t.shed);
  PutVarint64(dst, t.cache_hits);
  PutVarint64(dst, t.cache_misses);
  PutVarint64(dst, t.cache_entries);
  PutVarint64(dst, t.cache_bytes);
  PutVarint64(dst, t.cache_capacity_bytes);
}

bool DecodeTenantStats(std::string_view* input, TenantStats* t) {
  std::string_view tenant;
  if (!GetLengthPrefixed(input, &tenant)) return false;
  t->tenant.assign(tenant);
  return GetVarint64(input, &t->requests) &&
         GetVarint64(input, &t->admitted) && GetVarint64(input, &t->shed) &&
         GetVarint64(input, &t->cache_hits) &&
         GetVarint64(input, &t->cache_misses) &&
         GetVarint64(input, &t->cache_entries) &&
         GetVarint64(input, &t->cache_bytes) &&
         GetVarint64(input, &t->cache_capacity_bytes);
}

}  // namespace

QueryRequest MakeQueryRequest(const Table& table,
                              const std::vector<ColumnId>& key_columns,
                              int k, std::string tenant) {
  QueryRequest request;
  request.tenant = std::move(tenant);
  request.k = k;
  request.query = Table(table.name());
  std::vector<std::vector<std::string>> cells(key_columns.size());
  for (RowId r = 0; r < table.NumRows(); ++r) {
    if (table.IsRowDeleted(r)) continue;
    for (size_t i = 0; i < key_columns.size(); ++i) {
      cells[i].emplace_back(table.cell(r, key_columns[i]));
    }
  }
  request.query.AppendEmptyRows(table.NumLiveRows());
  for (size_t i = 0; i < key_columns.size(); ++i) {
    // Cannot fail: every cells[i] holds exactly one cell per live row.
    Status added = request.query.AddColumnWithCells(
        table.column_name(key_columns[i]), std::move(cells[i]));
    (void)added;
  }
  return request;
}

QuerySpec SpecFromRequest(const QueryRequest& request) {
  QuerySpec spec;
  spec.table = &request.query;
  spec.key_columns.resize(request.query.NumColumns());
  for (ColumnId c = 0; c < spec.key_columns.size(); ++c) {
    spec.key_columns[c] = c;
  }
  spec.options.k = request.k;
  spec.options.use_row_filter = request.use_row_filter;
  spec.options.use_table_filters = request.use_table_filters;
  spec.options.exclude_tables = request.exclude_tables;
  spec.options.restrict_tables = request.restrict_tables;
  spec.tenant = request.tenant;
  return spec;
}

void EncodeQueryRequest(const QueryRequest& request, std::string* payload) {
  payload->push_back(static_cast<char>(ServerVerb::kQuery));
  PutLengthPrefixed(payload, request.tenant);
  PutVarint32(payload, static_cast<uint32_t>(request.k));
  uint8_t flags = 0;
  if (request.use_row_filter) flags |= kFilterRowBit;
  if (request.use_table_filters) flags |= kFilterTableBit;
  payload->push_back(static_cast<char>(flags));
  PutTableIdList(payload, request.exclude_tables);
  PutTableIdList(payload, request.restrict_tables);
  const Table& q = request.query;
  PutVarint32(payload, static_cast<uint32_t>(q.NumColumns()));
  for (ColumnId c = 0; c < q.NumColumns(); ++c) {
    PutLengthPrefixed(payload, q.column_name(c));
  }
  PutVarint64(payload, q.NumRows());
  for (RowId r = 0; r < q.NumRows(); ++r) {
    for (ColumnId c = 0; c < q.NumColumns(); ++c) {
      PutLengthPrefixed(payload, q.cell(r, c));
    }
  }
}

void EncodeStatsRequest(std::string* payload) {
  payload->push_back(static_cast<char>(ServerVerb::kStats));
}

void EncodePingRequest(std::string* payload) {
  payload->push_back(static_cast<char>(ServerVerb::kPing));
}

void EncodeMetricsRequest(std::string* payload) {
  payload->push_back(static_cast<char>(ServerVerb::kMetrics));
}

Status DecodeRequestVerb(std::string_view payload, ServerVerb* verb,
                         std::string_view* rest) {
  if (payload.empty()) {
    return Status::InvalidArgument("empty request frame");
  }
  const uint8_t raw = static_cast<uint8_t>(payload[0]);
  switch (raw) {
    case static_cast<uint8_t>(ServerVerb::kQuery):
    case static_cast<uint8_t>(ServerVerb::kStats):
    case static_cast<uint8_t>(ServerVerb::kPing):
    case static_cast<uint8_t>(ServerVerb::kMetrics):
      *verb = static_cast<ServerVerb>(raw);
      *rest = payload.substr(1);
      return Status::OK();
    default:
      return Status::InvalidArgument("unknown request verb " +
                                     std::to_string(raw));
  }
}

Status DecodeQueryRequest(std::string_view body, QueryRequest* request) {
  std::string_view tenant;
  if (!GetLengthPrefixed(&body, &tenant)) {
    return Status::InvalidArgument("malformed tenant in query request");
  }
  if (tenant.size() > kMaxTenantNameBytes) {
    return Status::InvalidArgument(
        "tenant name of " + std::to_string(tenant.size()) +
        " bytes exceeds limit of " + std::to_string(kMaxTenantNameBytes));
  }
  request->tenant.assign(tenant);
  uint32_t k = 0;
  if (!GetVarint32(&body, &k)) {
    return Status::InvalidArgument("malformed k in query request");
  }
  request->k = static_cast<int>(k);
  if (body.empty()) {
    return Status::InvalidArgument("missing filter flags in query request");
  }
  const uint8_t flags = static_cast<uint8_t>(body[0]);
  body.remove_prefix(1);
  request->use_row_filter = (flags & kFilterRowBit) != 0;
  request->use_table_filters = (flags & kFilterTableBit) != 0;
  MATE_RETURN_IF_ERROR(
      GetTableIdList(&body, "exclude_tables", &request->exclude_tables));
  MATE_RETURN_IF_ERROR(
      GetTableIdList(&body, "restrict_tables", &request->restrict_tables));

  uint32_t num_columns = 0;
  if (!GetVarint32(&body, &num_columns) || num_columns == 0 ||
      num_columns > body.size()) {
    return Status::InvalidArgument("malformed column count in query request");
  }
  std::vector<std::string> column_names;
  column_names.reserve(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    std::string_view name;
    if (!GetLengthPrefixed(&body, &name)) {
      return Status::InvalidArgument(
          "truncated column names in query request");
    }
    column_names.emplace_back(name);
  }
  uint64_t num_rows = 0;
  if (!GetVarint64(&body, &num_rows) || num_rows > body.size()) {
    return Status::InvalidArgument("malformed row count in query request");
  }
  std::vector<std::vector<std::string>> cells(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) cells[c].reserve(num_rows);
  for (uint64_t r = 0; r < num_rows; ++r) {
    for (uint32_t c = 0; c < num_columns; ++c) {
      std::string_view cell;
      if (!GetLengthPrefixed(&body, &cell)) {
        return Status::InvalidArgument("truncated cells in query request");
      }
      cells[c].emplace_back(cell);
    }
  }
  if (!body.empty()) {
    return Status::InvalidArgument("trailing bytes after query request");
  }
  request->query = Table();
  request->query.AppendEmptyRows(num_rows);
  for (uint32_t c = 0; c < num_columns; ++c) {
    MATE_RETURN_IF_ERROR(request->query.AddColumnWithCells(
        std::move(column_names[c]), std::move(cells[c])));
  }
  return Status::OK();
}

void EncodeQueryResponse(const Corpus& corpus, const DiscoveryResult& result,
                         std::string* payload) {
  payload->push_back(static_cast<char>(StatusCode::kOk));
  PutLengthPrefixed(payload, "");
  PutVarint64(payload, result.top_k.size());
  for (const TableResult& r : result.top_k) {
    PutVarint32(payload, r.table_id);
    PutVarint64(payload, static_cast<uint64_t>(r.joinability));
    PutLengthPrefixed(payload, corpus.table_name(r.table_id));
    PutVarint32(payload, static_cast<uint32_t>(r.best_mapping.size()));
    for (ColumnId c : r.best_mapping) {
      PutVarint32(payload, c);
      PutLengthPrefixed(payload, corpus.table_column_name(r.table_id, c));
    }
  }
}

void EncodeErrorResponse(const Status& status, std::string* payload) {
  payload->push_back(static_cast<char>(status.code()));
  PutLengthPrefixed(payload, status.message());
}

void EncodeStatsResponse(const ServerStatsSnapshot& snapshot,
                         std::string* payload) {
  payload->push_back(static_cast<char>(StatusCode::kOk));
  PutLengthPrefixed(payload, "");
  PutVarint64(payload, snapshot.queue_depth);
  PutVarint64(payload, snapshot.queue_capacity);
  PutVarint64(payload, snapshot.admitted);
  PutVarint64(payload, snapshot.shed);
  PutVarint64(payload, snapshot.completed);
  PutVarint64(payload, snapshot.active_connections);
  payload->push_back(snapshot.draining ? 1 : 0);
  PutFixed64(payload, std::bit_cast<uint64_t>(snapshot.total_query_seconds));
  PutVarint64(payload, snapshot.cache_hits);
  PutVarint64(payload, snapshot.cache_misses);
  PutVarint64(payload, snapshot.latency_count);
  PutVarint64(payload, snapshot.latency_p50_us);
  PutVarint64(payload, snapshot.latency_p90_us);
  PutVarint64(payload, snapshot.latency_p99_us);
  PutVarint64(payload, snapshot.latency_p999_us);
  PutVarint64(payload, snapshot.latency_max_us);
  PutVarint64(payload, snapshot.corpus_resident_bytes);
  PutVarint64(payload, snapshot.corpus_peak_resident_bytes);
  PutVarint64(payload, snapshot.corpus_budget_bytes);
  PutVarint64(payload, snapshot.corpus_evictions);
  PutVarint64(payload, snapshot.tables_resident);
  PutVarint64(payload, snapshot.num_tables);
  PutVarint64(payload, snapshot.steering_serial);
  PutVarint64(payload, snapshot.steering_partial);
  PutVarint64(payload, snapshot.steering_full);
  PutVarint64(payload, snapshot.tenants.size());
  for (const TenantStats& t : snapshot.tenants) EncodeTenantStats(t, payload);
}

void EncodePingResponse(std::string* payload) {
  payload->push_back(static_cast<char>(StatusCode::kOk));
  PutLengthPrefixed(payload, "");
}

void EncodeMetricsResponse(std::string_view text_page, std::string* payload) {
  payload->push_back(static_cast<char>(StatusCode::kOk));
  PutLengthPrefixed(payload, "");
  PutLengthPrefixed(payload, text_page);
}

Status DecodeMetricsResponseBody(std::string_view body,
                                 std::string* text_page) {
  std::string_view page;
  if (!GetLengthPrefixed(&body, &page)) {
    return Status::Corruption("malformed metrics page in response");
  }
  text_page->assign(page);
  return Status::OK();
}

Status DecodeResponseStatus(std::string_view payload, Status* server_status,
                            std::string_view* body) {
  if (payload.empty()) {
    return Status::Corruption("empty response frame");
  }
  const uint8_t raw = static_cast<uint8_t>(payload[0]);
  if (raw > static_cast<uint8_t>(StatusCode::kOverloaded)) {
    return Status::Corruption("unknown status code " + std::to_string(raw) +
                              " in response frame");
  }
  payload.remove_prefix(1);
  std::string_view message;
  if (!GetLengthPrefixed(&payload, &message)) {
    return Status::Corruption("malformed status message in response frame");
  }
  *server_status =
      StatusFromWire(static_cast<StatusCode>(raw), std::string(message));
  *body = payload;
  return Status::OK();
}

Status DecodeQueryResponseBody(std::string_view body,
                               std::vector<ServedResult>* results) {
  uint64_t n = 0;
  if (!GetVarint64(&body, &n) || n > body.size() + 1) {
    return Status::Corruption("malformed result count in query response");
  }
  results->clear();
  results->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ServedResult r;
    uint64_t joinability = 0;
    std::string_view name;
    if (!GetVarint32(&body, &r.table_id) ||
        !GetVarint64(&body, &joinability) ||
        !GetLengthPrefixed(&body, &name)) {
      return Status::Corruption("truncated result in query response");
    }
    r.joinability = static_cast<int64_t>(joinability);
    r.table_name.assign(name);
    uint32_t mapping_size = 0;
    if (!GetVarint32(&body, &mapping_size) || mapping_size > body.size()) {
      return Status::Corruption("malformed mapping in query response");
    }
    r.mapping.reserve(mapping_size);
    r.mapping_names.reserve(mapping_size);
    for (uint32_t m = 0; m < mapping_size; ++m) {
      uint32_t column = 0;
      std::string_view column_name;
      if (!GetVarint32(&body, &column) ||
          !GetLengthPrefixed(&body, &column_name)) {
        return Status::Corruption("truncated mapping in query response");
      }
      r.mapping.push_back(column);
      r.mapping_names.emplace_back(column_name);
    }
    results->push_back(std::move(r));
  }
  if (!body.empty()) {
    return Status::Corruption("trailing bytes after query response");
  }
  return Status::OK();
}

Status DecodeStatsResponseBody(std::string_view body,
                               ServerStatsSnapshot* snapshot) {
  uint64_t seconds_bits = 0;
  uint8_t draining = 0;
  bool ok = GetVarint64(&body, &snapshot->queue_depth) &&
            GetVarint64(&body, &snapshot->queue_capacity) &&
            GetVarint64(&body, &snapshot->admitted) &&
            GetVarint64(&body, &snapshot->shed) &&
            GetVarint64(&body, &snapshot->completed) &&
            GetVarint64(&body, &snapshot->active_connections);
  if (ok && !body.empty()) {
    draining = static_cast<uint8_t>(body[0]);
    body.remove_prefix(1);
  } else {
    ok = false;
  }
  ok = ok && GetFixed64(&body, &seconds_bits) &&
       GetVarint64(&body, &snapshot->cache_hits) &&
       GetVarint64(&body, &snapshot->cache_misses) &&
       GetVarint64(&body, &snapshot->latency_count) &&
       GetVarint64(&body, &snapshot->latency_p50_us) &&
       GetVarint64(&body, &snapshot->latency_p90_us) &&
       GetVarint64(&body, &snapshot->latency_p99_us) &&
       GetVarint64(&body, &snapshot->latency_p999_us) &&
       GetVarint64(&body, &snapshot->latency_max_us) &&
       GetVarint64(&body, &snapshot->corpus_resident_bytes) &&
       GetVarint64(&body, &snapshot->corpus_peak_resident_bytes) &&
       GetVarint64(&body, &snapshot->corpus_budget_bytes) &&
       GetVarint64(&body, &snapshot->corpus_evictions) &&
       GetVarint64(&body, &snapshot->tables_resident) &&
       GetVarint64(&body, &snapshot->num_tables) &&
       GetVarint64(&body, &snapshot->steering_serial) &&
       GetVarint64(&body, &snapshot->steering_partial) &&
       GetVarint64(&body, &snapshot->steering_full);
  uint64_t num_tenants = 0;
  ok = ok && GetVarint64(&body, &num_tenants) && num_tenants <= body.size();
  if (!ok) {
    return Status::Corruption("malformed stats response");
  }
  snapshot->draining = draining != 0;
  snapshot->total_query_seconds = std::bit_cast<double>(seconds_bits);
  snapshot->tenants.clear();
  snapshot->tenants.reserve(num_tenants);
  for (uint64_t i = 0; i < num_tenants; ++i) {
    TenantStats t;
    if (!DecodeTenantStats(&body, &t)) {
      return Status::Corruption("truncated tenant stats in stats response");
    }
    snapshot->tenants.push_back(std::move(t));
  }
  if (!body.empty()) {
    return Status::Corruption("trailing bytes after stats response");
  }
  return Status::OK();
}

std::string ServerStatsSnapshot::ToString() const {
  std::ostringstream out;
  out << "server: queue " << queue_depth << "/" << queue_capacity
      << (draining ? " (draining)" : "") << ", admitted " << admitted
      << ", shed " << shed << ", completed " << completed << ", connections "
      << active_connections << "\n";
  out << "service: " << total_query_seconds << "s query time, cache "
      << cache_hits << " hits / " << cache_misses << " misses\n";
  out << "latency (us, n=" << latency_count << "): p50 " << latency_p50_us
      << ", p90 " << latency_p90_us << ", p99 " << latency_p99_us
      << ", p99.9 " << latency_p999_us << ", max " << latency_max_us << "\n";
  out << "corpus: " << corpus_resident_bytes << "/" << corpus_budget_bytes
      << " bytes resident (peak " << corpus_peak_resident_bytes << "), "
      << tables_resident << "/" << num_tables << " tables, "
      << corpus_evictions << " evictions\n";
  if (steering_serial + steering_partial + steering_full > 0) {
    out << "steering: " << steering_serial << " serial, " << steering_partial
        << " partial, " << steering_full << " full\n";
  }
  for (const TenantStats& t : tenants) {
    out << "tenant '" << t.tenant << "': " << t.requests << " requests, "
        << t.admitted << " admitted, " << t.shed << " shed, cache "
        << t.cache_hits << " hits / " << t.cache_misses << " misses, "
        << t.cache_entries << " entries, " << t.cache_bytes << "/"
        << t.cache_capacity_bytes << " bytes\n";
  }
  return out.str();
}

Status WriteFrame(int fd, std::string_view payload) {
  std::string frame;
  frame.reserve(4 + payload.size());
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  size_t written = 0;
  while (written < frame.size()) {
    // MSG_NOSIGNAL: a peer that hung up before its response is written must
    // surface as EPIPE here, not as a process-killing SIGPIPE — one
    // disconnecting client must never take down a multi-tenant server.
    const ssize_t n = ::send(fd, frame.data() + written,
                             frame.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("socket write failed: " +
                             std::string(std::strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

namespace {

/// Reads exactly `n` bytes. `*eof_at_start` reports a clean EOF before the
/// first byte (only meaningful when the read fails).
Status ReadExactly(int fd, char* buf, size_t n, bool* eof_at_start) {
  size_t got = 0;
  *eof_at_start = false;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("socket read failed: " +
                             std::string(std::strerror(errno)));
    }
    if (r == 0) {
      *eof_at_start = got == 0;
      return Status::IOError("connection closed mid-frame");
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

Status ReadFrame(int fd, std::string* payload, uint32_t max_bytes,
                 double* transfer_seconds) {
  char header[4];
  bool eof_at_start = false;
  Status s = ReadExactly(fd, header, sizeof(header), &eof_at_start);
  if (!s.ok()) {
    if (eof_at_start) return Status::NotFound("connection closed");
    return s;
  }
  // Timed from header completion: the wait for a peer to *start* a request
  // is connection idle time, not frame transfer.
  Stopwatch transfer_timer;
  std::string_view header_view(header, sizeof(header));
  uint32_t length = 0;
  GetFixed32(&header_view, &length);
  if (length > max_bytes) {
    return Status::InvalidArgument(
        "frame of " + std::to_string(length) + " bytes exceeds limit of " +
        std::to_string(max_bytes));
  }
  // Grow the buffer as bytes actually arrive instead of trusting the
  // client-declared length: a forged header must not allocate max_bytes
  // upfront for a peer that never sends a payload.
  constexpr size_t kReadChunkBytes = 256u << 10;
  payload->clear();
  size_t got = 0;
  while (got < length) {
    const size_t step = std::min<size_t>(kReadChunkBytes, length - got);
    payload->resize(got + step);
    s = ReadExactly(fd, payload->data() + got, step, &eof_at_start);
    if (!s.ok()) return s;
    got += step;
  }
  if (transfer_seconds != nullptr) {
    *transfer_seconds = transfer_timer.ElapsedSeconds();
  }
  return Status::OK();
}

}  // namespace mate
