// Recursive-descent parser for the XML subset used by descriptors.
//
// Supported: one root element, nested elements, attributes with single- or
// double-quoted values, character data, the five predefined entities, XML
// declarations, comments, and CDATA sections. Not supported (not needed for
// descriptor documents): DTDs, processing instructions other than the
// declaration, and namespaces (colons are treated as ordinary name chars).
#pragma once

#include <cstddef>
#include <string_view>

#include "xml/node.hpp"

namespace dhtidx::xml {

/// Deepest element nesting parse() accepts. The parser recurses once per
/// level, so a bound keeps hostile input from overflowing the stack;
/// descriptors and snapshots nest a handful of levels.
inline constexpr std::size_t kMaxDepth = 512;

/// Parses a complete document and returns its root element.
/// Throws dhtidx::ParseError with a line/column diagnostic on malformed input,
/// including elements nested deeper than kMaxDepth.
Element parse(std::string_view document);

/// Decodes the five predefined XML entities (and numeric character
/// references) in `text`.
std::string decode_entities(std::string_view text);

}  // namespace dhtidx::xml
