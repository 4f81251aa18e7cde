#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "xml/node.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace dhtidx::xml {
namespace {

// The d1 descriptor of Figure 1.
constexpr const char* kDescriptorD1 = R"(
<article>
  <author>
    <first>John</first>
    <last>Smith</last>
  </author>
  <title>TCP</title>
  <conf>SIGCOMM</conf>
  <year>1989</year>
  <size>315635</size>
</article>)";

TEST(XmlParser, ParsesPaperDescriptor) {
  const Element doc = parse(kDescriptorD1);
  EXPECT_EQ(doc.name(), "article");
  ASSERT_NE(doc.child("author"), nullptr);
  EXPECT_EQ(doc.child("author")->child("first")->text(), "John");
  EXPECT_EQ(doc.child("author")->child("last")->text(), "Smith");
  EXPECT_EQ(doc.child("title")->text(), "TCP");
  EXPECT_EQ(doc.child("conf")->text(), "SIGCOMM");
  EXPECT_EQ(doc.child("year")->text(), "1989");
  EXPECT_EQ(doc.child("size")->text(), "315635");
}

TEST(XmlParser, SelfClosingTag) {
  const Element doc = parse("<a><b/><c/></a>");
  EXPECT_EQ(doc.children().size(), 2u);
  EXPECT_EQ(doc.children()[0].name(), "b");
  EXPECT_TRUE(doc.children()[0].text().empty());
}

TEST(XmlParser, Attributes) {
  const Element doc = parse(R"(<a key="v1" other='v2'/>)");
  EXPECT_EQ(doc.attribute("key"), "v1");
  EXPECT_EQ(doc.attribute("other"), "v2");
  EXPECT_EQ(doc.attribute("missing"), std::nullopt);
}

TEST(XmlParser, EntityDecoding) {
  const Element doc = parse("<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos;</a>");
  EXPECT_EQ(doc.text(), "<x> & \"y\" 'z'");
}

TEST(XmlParser, NumericCharacterReferences) {
  const Element doc = parse("<a>&#65;&#x42;</a>");
  EXPECT_EQ(doc.text(), "AB");
}

TEST(XmlParser, MalformedCharacterReferencesAreRejected) {
  // A character reference is '#' and decimal digits, or '#x' and hex
  // digits, nothing else. An empty reference used to read one byte past the
  // entity, and a sign, whitespace or trailing junk used to be ignored.
  for (const char* text : {"&#;", "&#x;", "&#X;", "&#65junk;", "&#x41g;", "&# 65;",
                           "&#+65;", "&#-65;", "&#0x41;", "&#99999999999999999999999;"}) {
    EXPECT_THROW(parse(std::string{"<a>"} + text + "</a>"), ParseError) << text;
    EXPECT_THROW(parse(std::string{"<a k='"} + text + "'/>"), ParseError) << text;
  }
  EXPECT_EQ(parse("<a>&#X4A;&#0065;</a>").text(), "JA");
}

TEST(XmlParser, NestingDeeperThanTheCapIsRejectedNotAStackOverflow) {
  const auto nested = [](std::size_t depth) {
    std::string doc;
    for (std::size_t i = 0; i < depth; ++i) doc += "<a>";
    for (std::size_t i = 0; i < depth; ++i) doc += "</a>";
    return doc;
  };
  EXPECT_NO_THROW(parse(nested(kMaxDepth)));
  EXPECT_THROW(parse(nested(kMaxDepth + 1)), ParseError);
  // 100k levels overflowed the stack before the cap.
  EXPECT_THROW(parse(nested(100000)), ParseError);
}

TEST(XmlParser, NumericReferenceUtf8) {
  const Element doc = parse("<a>&#233;</a>");  // e-acute
  EXPECT_EQ(doc.text(), "\xC3\xA9");
}

TEST(XmlParser, CData) {
  const Element doc = parse("<a><![CDATA[1 < 2 && 3 > 2]]></a>");
  EXPECT_EQ(doc.text(), "1 < 2 && 3 > 2");
}

TEST(XmlParser, CommentsIgnored) {
  const Element doc = parse("<a><!-- comment --><b/><!-- another --></a>");
  EXPECT_EQ(doc.children().size(), 1u);
}

TEST(XmlParser, DeclarationSkipped) {
  const Element doc = parse("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a/>");
  EXPECT_EQ(doc.name(), "a");
}

TEST(XmlParser, MismatchedTagRejected) {
  EXPECT_THROW(parse("<a><b></a></b>"), ParseError);
}

TEST(XmlParser, UnterminatedElementRejected) {
  EXPECT_THROW(parse("<a><b>"), ParseError);
}

TEST(XmlParser, TrailingContentRejected) {
  EXPECT_THROW(parse("<a/><b/>"), ParseError);
}

TEST(XmlParser, UnknownEntityRejected) {
  EXPECT_THROW(parse("<a>&bogus;</a>"), ParseError);
}

TEST(XmlParser, ErrorsCarryLocation) {
  try {
    parse("<a>\n<b>\n</c>\n</a>");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos) << e.what();
  }
}

TEST(XmlWriter, EscapesSpecialCharacters) {
  Element e{"a", "1 < 2 & x"};
  const std::string out = write(e, {.pretty = false});
  EXPECT_EQ(out, "<a>1 &lt; 2 &amp; x</a>");
}

TEST(XmlWriter, AttributeEscaping) {
  Element e{"a"};
  e.set_attribute("k", "say \"hi\" & <go>");
  const std::string out = write(e, {.pretty = false});
  EXPECT_NE(out.find("&quot;hi&quot;"), std::string::npos);
  EXPECT_NE(out.find("&lt;go&gt;"), std::string::npos);
}

TEST(XmlWriter, PrettyPrintIndents) {
  Element root{"a"};
  root.add_child("b", "x");
  const std::string out = write(root);
  EXPECT_NE(out.find("\n  <b>"), std::string::npos);
}

TEST(XmlWriter, DeclarationOption) {
  Element e{"a"};
  EXPECT_TRUE(write(e, {.declaration = true}).starts_with("<?xml"));
}

TEST(XmlNode, ChildLookupAndDescendants) {
  const Element doc = parse(kDescriptorD1);
  EXPECT_EQ(doc.find_descendant("last")->text(), "Smith");
  EXPECT_EQ(doc.find_descendant("nope"), nullptr);
  EXPECT_EQ(doc.children_named("title").size(), 1u);
  EXPECT_EQ(doc.subtree_size(), 8u);  // article, author, first, last, title, conf, year, size
}

TEST(XmlNode, EqualityIsStructural) {
  const Element a = parse("<a><b>x</b></a>");
  const Element b = parse("<a><b>x</b></a>");
  const Element c = parse("<a><b>y</b></a>");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(XmlNode, ByteSizeCountsSubtree) {
  Element leaf{"ab", "xyz"};
  // <ab>xyz</ab>: 2*2 + 5 + 3 = 12.
  EXPECT_EQ(leaf.byte_size(), 12u);
  Element root{"r"};
  root.add_child(leaf);
  EXPECT_GT(root.byte_size(), leaf.byte_size());
}

// Property: write(parse(x)) == write(parse(write(parse(x)))) for random trees.
Element random_tree(Rng& rng, int depth) {
  Element e{"n" + std::to_string(rng.next_index(20))};
  if (depth > 0 && rng.next_bool(0.7)) {
    const int children = static_cast<int>(rng.next_in(1, 3));
    for (int i = 0; i < children; ++i) e.add_child(random_tree(rng, depth - 1));
  } else {
    e.set_text("text<&>'\"" + std::to_string(rng.next_index(1000)));
  }
  if (rng.next_bool(0.3)) e.set_attribute("attr", "v&\"" + std::to_string(rng.next_index(9)));
  return e;
}

class XmlRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XmlRoundTripTest, ParseOfWriteIsIdentity) {
  Rng rng{GetParam()};
  const Element original = random_tree(rng, 4);
  for (const bool pretty : {true, false}) {
    const std::string serialized = write(original, {.pretty = pretty});
    const Element reparsed = parse(serialized);
    EXPECT_EQ(reparsed, original) << serialized;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripTest, ::testing::Range<std::uint64_t>(0, 20));

// --- Byte-level sweep: arbitrary input is rejected or round-trips -----------

/// The parser's contract on arbitrary bytes: either a ParseError, or an
/// element whose serialization, compact and pretty, parses back to an equal
/// element. Any other exception escapes and fails the test.
void expect_rejected_or_round_trips(const std::string& input, int& accepted) {
  Element doc;
  try {
    doc = parse(input);
  } catch (const ParseError&) {
    return;
  }
  ++accepted;
  for (const bool pretty : {false, true}) {
    const std::string written = write(doc, {.pretty = pretty});
    try {
      EXPECT_EQ(parse(written), doc) << "input " << input << " written " << written;
    } catch (const ParseError& e) {
      ADD_FAILURE() << "written form " << written << " of input " << input
                    << " does not re-parse: " << e.what();
    }
  }
}

TEST(XmlParserFuzz, RandomBuffersAreRejectedOrRoundTrip) {
  // 5k buffers: half uniform bytes, half drawn from the markup's own
  // punctuation, entity and CDATA letters, names and whitespace. Most open
  // with a start tag, and a third of the markup ones are wrapped in a
  // matching element so that they get past the root.
  static constexpr std::string_view kMarkup = "<>/=\"'&;#x![]-?CDAT ab1_:.\t\nltgamp";
  Rng rng{0x3a11};
  int accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    const bool uniform = i % 2 == 0;
    const bool wrapped = !uniform && i % 3 == 0;
    std::string input = wrapped ? "<a>" : rng.next_bool(0.8) ? "<a" : "";
    const std::size_t length = rng.next_index(uniform ? 64 : 32);
    for (std::size_t k = 0; k < length; ++k) {
      input.push_back(uniform ? static_cast<char>(rng.next_index(256))
                              : kMarkup[rng.next_index(kMarkup.size())]);
    }
    if (wrapped) input += "</a>";
    expect_rejected_or_round_trips(input, accepted);
  }
  EXPECT_GT(accepted, 200);  // the sweep must reach past the root element
}

/// A random descriptor in the shape of the corpus's article records, with
/// attributes and text that need escaping.
Element random_descriptor(Rng& rng) {
  static constexpr const char* kValues[] = {"Smith", "TCP/IP", "a < b & c", "it's \"q\"",
                                            "1996",  "x  y",   "caf\xC3\xA9",  ""};
  const auto value = [&] { return std::string{kValues[rng.next_index(std::size(kValues))]}; };
  Element doc{"article"};
  if (rng.next_bool(0.5)) doc.set_attribute("key", value());
  Element author{"author"};
  author.add_child("first", value());
  author.add_child("last", value());
  doc.add_child(std::move(author));
  for (const char* field : {"title", "conf", "year", "size"}) {
    if (rng.next_bool(0.7)) doc.add_child(field, value());
  }
  if (rng.next_bool(0.3)) doc.children().back().set_attribute("lang", value());
  return doc;
}

TEST(XmlParserFuzz, MutatedDescriptorsAreRejectedOrRoundTrip) {
  // 2k mutations of generated descriptors, written compact and pretty, plus
  // hand-written seeds covering the prolog, comments, CDATA, character
  // references and self-closing tags.
  std::vector<std::string> seeds = {
      kDescriptorD1,
      "<?xml version=\"1.0\"?>\n<!-- head --><a x='1'><b/><!-- c --><c>t</c></a>",
      "<a><![CDATA[<raw> & ]]>tail &amp; &#65;&#x42;</a>",
      "<a k=\"&lt;&quot;\">&gt;&apos;</a>",
  };
  Rng rng{0xd35c};
  for (int i = 0; i < 20; ++i) {
    seeds.push_back(write(random_descriptor(rng), {.pretty = i % 2 == 0}));
  }
  static constexpr std::string_view kInsert = "<>/=\"'&;#!-[] a";
  int accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string input = seeds[rng.next_index(seeds.size())];
    const std::size_t mutations = 1 + rng.next_index(3);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t at = rng.next_index(input.size() + 1);
      switch (rng.next_index(4)) {
        case 0:  // insert a markup character
          input.insert(at, 1, kInsert[rng.next_index(kInsert.size())]);
          break;
        case 1:  // delete a byte
          if (at < input.size()) input.erase(at, 1);
          break;
        case 2:  // overwrite with an arbitrary byte
          if (at < input.size()) input[at] = static_cast<char>(rng.next_index(256));
          break;
        default: {  // duplicate a short slice
          const std::size_t len = std::min<std::size_t>(input.size() - std::min(at, input.size()),
                                                        1 + rng.next_index(8));
          input.insert(at, input.substr(at, len));
          break;
        }
      }
    }
    expect_rejected_or_round_trips(input, accepted);
  }
  EXPECT_GT(accepted, 200);
}

}  // namespace
}  // namespace dhtidx::xml
