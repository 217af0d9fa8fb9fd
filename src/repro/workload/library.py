"""A second domain: a bibliographic store (library/book/author).

The exam-session workload mirrors the paper's running example; this one
exercises different structural features — optional branches, recursive
citations, attribute-heavy records — and ships with its own schema, FD
set and update classes so examples, tests and benches can show the
machinery outside the paper's domain.

Constraints provided by :func:`library_fds`:

* ``isbn-key`` — within the library, @isbn identifies the book (a key);
* ``isbn-title`` — @isbn determines the title (a value FD);
* ``publisher-city`` — a publisher name determines its city.

Update classes from :func:`library_update_classes`: price rewrites,
title rewrites, review-grade rewrites and publisher-city rewrites.
The criterion IC (with or without :func:`library_schema`) certifies
price rewrites independent of ``isbn-title`` and ``publisher-city`` but
not of ``isbn-key``: a key's target is the whole book node, so the FD's
trace covers every price, title and review below it and IC answers
POSSIBLY_DEPENDENT for all three book-level classes.  Title rewrites are
also dangerous for ``isbn-title``, city rewrites for ``publisher-city``.
"""

from __future__ import annotations

import random

from repro.fd.fd import FunctionalDependency
from repro.fd.keys import relative_key
from repro.fd.linear import LinearFD, translate_linear_fd
from repro.schema.dtd import Schema
from repro.update.update_class import UpdateClass
from repro.xmlmodel.builder import attr, doc, elem
from repro.xmlmodel.tree import XMLDocument
from repro.xpath.translate import update_class_from_xpath

TITLES = (
    "On Trees",
    "Automata at Work",
    "The Pattern Book",
    "Streams and Schemas",
    "Views of Change",
    "Dependable Data",
    "Queries Revisited",
    "The Update Problem",
)

AUTHORS = ("Arenas", "Buneman", "Fan", "Libkin", "Suciu", "Vianu")

PUBLISHERS = (
    ("TreeHouse Press", "Lausanne"),
    ("Automata Editions", "Paris"),
    ("Pattern & Sons", "Edinburgh"),
)


def library_schema() -> Schema:
    """Schema of the bibliographic store."""
    return Schema.from_rules(
        document_element="library",
        rules={
            "library": "book* publisher*",
            "book": "@isbn title author+ publisher-ref price? review*",
            "title": "#text",
            "author": "#text",
            "publisher-ref": "#text",
            "price": "#text",
            "review": "grade cites*",
            "grade": "#text",
            "cites": "#text",
            "publisher": "@name city",
            "city": "#text",
        },
    )


def library_fds() -> list[FunctionalDependency]:
    """The store's constraint set (see the module docstring)."""
    isbn_key = relative_key(
        "/library", "book", ["@isbn"], name="isbn-key"
    )
    isbn_title = translate_linear_fd(
        LinearFD.build(
            context="/library",
            conditions=["book/@isbn"],
            target="book/title",
            name="isbn-title",
        )
    )
    publisher_city = translate_linear_fd(
        LinearFD.build(
            context="/library",
            conditions=["publisher/@name"],
            target="publisher/city",
            name="publisher-city",
        )
    )
    return [isbn_key, isbn_title, publisher_city]


def library_update_classes() -> dict[str, UpdateClass]:
    """Named update classes over the store."""
    return {
        "price-updates": update_class_from_xpath(
            "/library/book/price", name="price-updates"
        ),
        "title-updates": update_class_from_xpath(
            "/library/book/title", name="title-updates"
        ),
        "review-grades": update_class_from_xpath(
            "/library/book/review/grade", name="review-grades"
        ),
        "city-updates": update_class_from_xpath(
            "/library/publisher/city", name="city-updates"
        ),
    }


def generate_library(
    books: int,
    seed: int = 0,
    violate_key: int = 0,
    violate_title: int = 0,
) -> XMLDocument:
    """A synthetic store with ``books`` records satisfying all FDs.

    ``violate_key``/``violate_title`` append that many records breaking
    the isbn key / the isbn→title FD respectively.
    """
    rng = random.Random(seed)
    library = elem("library")
    titles_by_isbn: dict[str, str] = {}
    for index in range(books):
        isbn = f"978-{index:06d}"
        title = rng.choice(TITLES)
        titles_by_isbn[isbn] = title
        publisher = rng.choice(PUBLISHERS)[0]
        book = elem(
            "book",
            attr("isbn", isbn),
            elem("title", title),
        )
        for author in rng.sample(AUTHORS, rng.randint(1, 3)):
            book.append_child(elem("author", author))
        book.append_child(elem("publisher-ref", publisher))
        if rng.random() < 0.8:
            book.append_child(elem("price", str(rng.randint(9, 120))))
        for _ in range(rng.randint(0, 2)):
            review = elem("review", elem("grade", str(rng.randint(1, 5))))
            for _ in range(rng.randint(0, 2)):
                cited = f"978-{rng.randrange(max(books, 1)):06d}"
                review.append_child(elem("cites", cited))
            book.append_child(review)
        library.append_child(book)

    for index in range(violate_key):
        isbn = f"978-{index:06d}"
        library.append_child(
            elem(
                "book",
                attr("isbn", isbn),
                elem("title", titles_by_isbn.get(isbn, TITLES[0])),
                elem("author", "Duplicated"),
                elem("publisher-ref", PUBLISHERS[0][0]),
            )
        )
    for index in range(violate_title):
        isbn = f"978-{index:06d}"
        wrong_title = "A Different Title Entirely"
        library.append_child(
            elem(
                "book",
                attr("isbn", isbn),
                elem("title", wrong_title),
                elem("author", "Mismatched"),
                elem("publisher-ref", PUBLISHERS[0][0]),
            )
        )

    for name, city in PUBLISHERS:
        library.append_child(
            elem("publisher", attr("name", name), elem("city", city))
        )
    return doc(library)
