#include "biblio/article.hpp"

#include "common/error.hpp"

namespace dhtidx::biblio {

using query::Query;

xml::Element Article::descriptor() const {
  xml::Element root{"article"};
  xml::Element author{"author"};
  author.add_child("first", first_name);
  author.add_child("last", last_name);
  root.add_child(std::move(author));
  root.add_child("title", title);
  root.add_child("conf", conference);
  root.add_child("year", std::to_string(year));
  root.add_child("size", std::to_string(file_bytes));
  return root;
}

query::Query Article::msd() const { return Query::most_specific(descriptor()); }

query::Query Article::author_query() const {
  return Query{"article", {{"author/first", first_name}, {"author/last", last_name}}};
}

query::Query Article::title_query() const { return Query{"article", {{"title", title}}}; }

query::Query Article::conference_query() const {
  return Query{"article", {{"conf", conference}}};
}

query::Query Article::year_query() const {
  return Query{"article", {{"year", std::to_string(year)}}};
}

query::Query Article::author_title_query() const {
  return Query{"article",
               {{"author/first", first_name}, {"author/last", last_name}, {"title", title}}};
}

query::Query Article::author_year_query() const {
  return Query{"article",
               {{"author/first", first_name},
                {"author/last", last_name},
                {"year", std::to_string(year)}}};
}

query::Query Article::conference_year_query() const {
  return Query{"article", {{"conf", conference}, {"year", std::to_string(year)}}};
}

query::Query Article::author_conference_query() const {
  return Query{"article",
               {{"author/first", first_name}, {"author/last", last_name}, {"conf", conference}}};
}

query::Query Article::author_conference_year_query() const {
  return Query{"article",
               {{"author/first", first_name},
                {"author/last", last_name},
                {"conf", conference},
                {"year", std::to_string(year)}}};
}

Article article_from_descriptor(const xml::Element& descriptor) {
  if (descriptor.name() != "article") {
    throw ParseError("descriptor root must be <article>, got <" + descriptor.name() + ">");
  }
  const xml::Element* author = descriptor.child("author");
  const xml::Element* title = descriptor.child("title");
  const xml::Element* conf = descriptor.child("conf");
  const xml::Element* year = descriptor.child("year");
  if (!author || !title || !conf || !year) {
    throw ParseError("descriptor is missing a required field");
  }
  const xml::Element* first = author->child("first");
  const xml::Element* last = author->child("last");
  if (!first || !last) throw ParseError("author must have <first> and <last>");

  Article a;
  a.first_name = first->text();
  a.last_name = last->text();
  a.title = title->text();
  a.conference = conf->text();
  try {
    a.year = std::stoi(year->text());
  } catch (const std::exception&) {
    throw ParseError("malformed <year>: " + year->text());
  }
  if (const xml::Element* size = descriptor.child("size")) {
    try {
      a.file_bytes = std::stoull(size->text());
    } catch (const std::exception&) {
      throw ParseError("malformed <size>: " + size->text());
    }
  }
  return a;
}

}  // namespace dhtidx::biblio
