#include "storage/csv.h"

#include <vector>

#include "storage/corpus_io.h"

namespace mate {

namespace {

// Parses one CSV record starting at *pos; appends fields to `fields`.
// Returns false at end of input.
bool ParseRecord(std::string_view content, size_t* pos,
                 std::vector<std::string>* fields, Status* status) {
  fields->clear();
  if (*pos >= content.size()) return false;
  std::string field;
  bool in_quotes = false;
  bool saw_any = false;
  while (*pos < content.size()) {
    char c = content[*pos];
    saw_any = true;
    if (in_quotes) {
      if (c == '"') {
        if (*pos + 1 < content.size() && content[*pos + 1] == '"') {
          field.push_back('"');
          *pos += 2;
        } else {
          in_quotes = false;
          ++*pos;
        }
      } else {
        field.push_back(c);
        ++*pos;
      }
      continue;
    }
    if (c == '"') {
      if (!field.empty()) {
        *status = Status::InvalidArgument("quote inside unquoted field");
        return false;
      }
      in_quotes = true;
      ++*pos;
    } else if (c == ',') {
      fields->push_back(std::move(field));
      field.clear();
      ++*pos;
    } else if (c == '\r' || c == '\n') {
      // consume \r\n or \n
      if (c == '\r' && *pos + 1 < content.size() && content[*pos + 1] == '\n') {
        ++*pos;
      }
      ++*pos;
      fields->push_back(std::move(field));
      return true;
    } else {
      field.push_back(c);
      ++*pos;
    }
  }
  if (in_quotes) {
    *status = Status::InvalidArgument("unterminated quoted field");
    return false;
  }
  if (saw_any) {
    fields->push_back(std::move(field));
    return true;
  }
  return false;
}

void AppendCsvField(std::string* out, std::string_view field) {
  bool needs_quotes = field.find_first_of(",\"\r\n") != std::string_view::npos;
  if (!needs_quotes) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

Result<Table> ParseCsv(std::string_view content, std::string table_name) {
  Table table(std::move(table_name));
  size_t pos = 0;
  std::vector<std::string> fields;
  Status status = Status::OK();
  if (!ParseRecord(content, &pos, &fields, &status)) {
    if (!status.ok()) return status;
    return Status::InvalidArgument("empty CSV input");
  }
  for (std::string& header : fields) table.AddColumn(std::move(header));
  size_t line = 1;
  while (ParseRecord(content, &pos, &fields, &status)) {
    ++line;
    if (fields.size() == 1 && fields[0].empty()) continue;  // blank line
    if (fields.size() != table.NumColumns()) {
      return Status::InvalidArgument("CSV record " + std::to_string(line) +
                                     " has " + std::to_string(fields.size()) +
                                     " fields, expected " +
                                     std::to_string(table.NumColumns()));
    }
    Result<RowId> row = table.AppendRow(std::move(fields));
    if (!row.ok()) return row.status();
    fields.clear();
  }
  if (!status.ok()) return status;
  return table;
}

Result<Table> LoadCsvFile(const std::string& path, std::string table_name) {
  MATE_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  return ParseCsv(content, table_name.empty() ? path : std::move(table_name));
}

std::string ToCsv(const Table& table) {
  std::string out;
  for (ColumnId c = 0; c < table.NumColumns(); ++c) {
    if (c > 0) out.push_back(',');
    AppendCsvField(&out, table.column_name(c));
  }
  out.push_back('\n');
  for (RowId r = 0; r < table.NumRows(); ++r) {
    if (table.IsRowDeleted(r)) continue;
    for (ColumnId c = 0; c < table.NumColumns(); ++c) {
      if (c > 0) out.push_back(',');
      AppendCsvField(&out, table.cell(r, c));
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace mate
