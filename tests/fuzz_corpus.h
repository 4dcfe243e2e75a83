// Shared hostile-input corpus for the parser tests: random garbage, random
// byte mutations of a valid document, and a few degenerate inputs. The fuzz
// smoke suite feeds it to every parser for totality; the text-ingest
// differential suite feeds the same documents to a parser and its oracle.
// Everything is a pure function of (valid document, seed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "gen/generators.h"
#include "graph/edge_list.h"

namespace ubigraph::test {

/// Random printable-ish garbage (includes brackets/quotes to reach parser
/// corners).
inline std::string RandomGarbage(Rng* rng, size_t max_len) {
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 \t\n\"'<>[]{}(),.:;*-=#\\/";
  size_t len = rng->NextBounded(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out += kAlphabet[rng->NextBounded(sizeof(kAlphabet) - 1)];
  }
  return out;
}

/// Applies `count` random single-byte mutations (overwrite/insert/delete).
inline std::string Mutate(std::string doc, Rng* rng, int count) {
  for (int i = 0; i < count && !doc.empty(); ++i) {
    size_t pos = rng->NextBounded(doc.size());
    switch (rng->NextBounded(3)) {
      case 0:
        doc[pos] = static_cast<char>(32 + rng->NextBounded(95));
        break;
      case 1:
        doc.insert(pos, 1, static_cast<char>(32 + rng->NextBounded(95)));
        break;
      case 2:
        doc.erase(pos, 1);
        break;
    }
  }
  return doc;
}

/// The small graph whose serializations seed the mutation corpus.
inline EdgeList SeedEdges() {
  Rng rng(99);
  return gen::ErdosRenyi(12, 30, &rng).ValueOrDie();
}

/// 200 garbage documents, 200 mutations of `valid_doc` (more likely to go
/// deep into the parser), then the empty, NUL-only and deeply nested inputs.
inline std::vector<std::string> FuzzCorpus(const std::string& valid_doc,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> docs;
  for (int i = 0; i < 200; ++i) docs.push_back(RandomGarbage(&rng, 300));
  for (int i = 0; i < 200; ++i) {
    docs.push_back(Mutate(valid_doc, &rng, 1 + static_cast<int>(rng.NextBounded(8))));
  }
  docs.emplace_back("");
  docs.emplace_back(1, '\0');
  docs.emplace_back(5000, '(');
  return docs;
}

}  // namespace ubigraph::test
