// Seeded mutation sweep over the wire decoders. Every byte of a valid
// QUERY request payload and of a valid QUERY response payload is flipped
// with four masks (0x01, 0x80 and two drawn from a fixed seed), and every
// truncation of both is tried. Each mutant must either decode to a message
// or fail with the decoder's typed error: InvalidArgument for requests,
// Corruption for responses (server/protocol.h). It must never crash; the
// ASan/UBSan leg runs this sweep too.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.h"
#include "storage/corpus.h"
#include "util/rng.h"

namespace mate {
namespace {

// Every single-byte flip of `valid` under masks 0x01, 0x80 and two seeded
// nonzero masks per byte, then every proper prefix of it.
std::vector<std::string> Mutants(const std::string& valid, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> mutants;
  for (size_t i = 0; i < valid.size(); ++i) {
    const uint8_t masks[] = {0x01, 0x80,
                             static_cast<uint8_t>(1 + rng.Uniform(255)),
                             static_cast<uint8_t>(1 + rng.Uniform(255))};
    for (const uint8_t mask : masks) {
      std::string mutant = valid;
      mutant[i] = static_cast<char>(static_cast<uint8_t>(mutant[i]) ^ mask);
      mutants.push_back(std::move(mutant));
    }
  }
  for (size_t size = 0; size < valid.size(); ++size) {
    mutants.push_back(valid.substr(0, size));
  }
  return mutants;
}

Table MakeKeyTable() {
  Table table("q");
  table.AddColumn("name");
  table.AddColumn("country");
  (void)table.AppendRow({"Helmut Newton", "Germany"});
  (void)table.AppendRow({"Ansel Adams", "US"});
  (void)table.AppendRow({"", "UK"});
  return table;
}

TEST(ProtocolFuzzTest, QueryRequestMutantsDecodeOrFailTyped) {
  QueryRequest request = MakeQueryRequest(MakeKeyTable(), {0, 1}, 5, "acme");
  request.exclude_tables = {3, 300};
  request.restrict_tables = {7};
  std::string valid;
  EncodeQueryRequest(request, &valid);

  size_t decoded = 0;
  size_t rejected = 0;
  for (const std::string& mutant : Mutants(valid, 2026)) {
    ServerVerb verb;
    std::string_view body;
    Status s = DecodeRequestVerb(mutant, &verb, &body);
    if (s.ok() && verb == ServerVerb::kQuery) {
      QueryRequest decoded_request;
      s = DecodeQueryRequest(body, &decoded_request);
    }
    if (s.ok()) {
      ++decoded;
    } else {
      ++rejected;
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
    }
  }
  // Cell and name bytes flip into other valid requests; count and length
  // bytes mostly break the frame. Both outcomes must occur.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(ProtocolFuzzTest, QueryResponseMutantsDecodeOrFailTyped) {
  Corpus corpus;
  for (const char* name : {"people", "places"}) {
    Table table(name);
    table.AddColumn("who");
    table.AddColumn("where");
    table.AddColumn("when");
    corpus.AddTable(std::move(table));
  }
  DiscoveryResult result;
  result.top_k.push_back({1, 42, {2, 0}});
  result.top_k.push_back({0, 7, {0, 1}});
  std::string valid;
  EncodeQueryResponse(corpus, result, &valid);

  size_t decoded = 0;
  size_t rejected = 0;
  for (const std::string& mutant : Mutants(valid, 2027)) {
    Status server_status;
    std::string_view body;
    Status s = DecodeResponseStatus(mutant, &server_status, &body);
    if (s.ok() && server_status.ok()) {
      std::vector<ServedResult> results;
      s = DecodeQueryResponseBody(body, &results);
    }
    if (s.ok()) {
      ++decoded;
    } else {
      ++rejected;
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace mate
