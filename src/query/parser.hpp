// Parser for the XPath subset of Section III-B.
//
// Grammar (whitespace is not significant between tokens):
//
//   query      := '/' name predicate* tail?
//   tail       := '/' segment-chain
//   predicate  := '[' ('//')? segment-chain predicate* ']'
//   segment    := name | '*'
//   segment-chain := segment ('/' segment)* ('=' value)?
//   value      := quoted | bare          (quoted: '...' with \-escapes)
//
// A bare value runs up to the next '[' or ']' and loses its leading and
// trailing whitespace. Query::canonical() therefore quotes every value that
// is empty, begins or ends with whitespace, or contains one of [ ] = / ' \ *,
// so that parsing a canonical string gives back the same query (and key).
//
// Interpretation rules (these resolve the ambiguity of the paper's notation,
// where /article/title/TCP means title = "TCP"):
//   - An explicit '=value' binds the value to the full segment chain.
//   - '=*' (unquoted star) is the presence-only marker: the field must exist
//     with any value. A literal star value must be quoted ('*').
//   - Without '=', a chain of two or more segments treats the LAST segment
//     as the value of the preceding path (the paper's convention).
//   - A single-segment chain without '=' is a presence constraint.
//   - Nested predicates prefix their inner constraints with the outer path:
//     [author[first/John][last/Smith]] yields author/first=John and
//     author/last=Smith.
//   - A leading '//' inside a predicate makes the constraint match at any
//     depth (descendant axis).
//
// Examples from the paper (Figure 2), all accepted:
//   /article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM]
//   /article/author[first/John][last/Smith]
//   /article/title/TCP
//   /article/author/last/Smith
#pragma once

#include <string_view>

#include "query/query.hpp"

namespace dhtidx::query {

/// Implementation behind Query::parse. Throws ParseError on malformed input.
Query parse_query(std::string_view text);

}  // namespace dhtidx::query
