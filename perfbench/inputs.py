"""Seeded input generators: the same seed gives byte-identical inputs.

Nothing here measures anything; the workloads time what they do with
these inputs.  Every generator takes the run's seed and derives its own
:class:`random.Random` from it, so inputs never depend on call order.
"""

from __future__ import annotations

import random
from pathlib import Path

#: every VIOLATION_EVERY-th library document carries an isbn-key violation
VIOLATION_EVERY = 97


def seeded_rng(seed: int, *salt: object) -> random.Random:
    return random.Random(repr((seed,) + salt))


#: documents per subdirectory of a written corpus
PART_SIZE = 250


def doc_path(directory: Path, index: int) -> Path:
    return directory / f"part{index // PART_SIZE:02d}" / f"doc{index:05d}.xml"


def corpus_parts(directory: Path) -> list[str]:
    """The corpus's subdirectories, in load order."""
    return sorted(str(part) for part in directory.iterdir())


def doc_index(path: str) -> int:
    """Inverse of :func:`doc_path` on a stored document's path."""
    return int(Path(path).stem[3:])


def _library_text(seed: int, index: int, version: int, violated: bool) -> str:
    from repro.workload.library import generate_library
    from repro.xmlmodel.serializer import serialize_document

    rng = seeded_rng(seed, "library", index, version)
    document = generate_library(
        books=rng.randint(1, 8),
        seed=rng.randrange(1 << 30),
        violate_key=1 if violated else 0,
    )
    return serialize_document(document)


def write_library_corpus(directory: Path, seed: int, documents: int) -> tuple[set[int], int]:
    """Write ``documents`` library files in parts of :data:`PART_SIZE`.

    Returns (violating indices, XML bytes).
    """
    violated = {index for index in range(documents) if index % VIOLATION_EVERY == 0}
    total = 0
    for index in range(documents):
        text = _library_text(seed, index, 0, index in violated)
        path = doc_path(directory, index)
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
        total += len(text.encode("utf-8"))
    return violated, total


def rewrite_library_corpus(
    directory: Path, seed: int, documents: int, violated: set[int], share: float
) -> tuple[set[int], list[int]]:
    """Rewrite ``share`` of the files with new content.

    Half of the violating documents (at least one) are rewritten clean
    and one in eight rewritten clean documents gains a violation, so the
    violated set both loses and gains members.  Returns the new violated
    set and the rewritten indices.
    """
    rng = seeded_rng(seed, "rewrite")
    count = max(2, round(documents * share))
    violators = sorted(violated)
    losing = rng.sample(violators, max(1, len(violators) // 2))
    clean = [index for index in range(documents) if index not in violated]
    rewritten_clean = rng.sample(clean, count - len(losing))
    gaining = set(rewritten_clean[::8])
    now_violated = (set(violated) - set(losing)) | gaining
    rewritten = sorted(losing + rewritten_clean)
    for index in rewritten:
        text = _library_text(seed, index, 1, index in now_violated)
        doc_path(directory, index).write_text(text, encoding="utf-8")
    return now_violated, rewritten


# ----------------------------------------------------------------------
# independence matrices
# ----------------------------------------------------------------------

#: T3's chain lengths for the FD-chain x U-chain axes
CHAIN_LENGTHS = (2, 4, 8, 16, 32)
#: T3's schema widths (eager wins at 2-4, lazy beyond)
SCHEMA_WIDTHS = (2, 4, 16)
#: side of the seeded random FD x update-class matrix of one round
RANDOM_SIDE = 5
#: longest random edge regex: longer ones make a few cells cost seconds
#: and let the seed, not the code, decide the tail latency
RANDOM_REGEX_LENGTH = 2


def chain_fd(length: int):
    from repro.fd.fd import FunctionalDependency
    from repro.pattern.builder import PatternBuilder

    builder = PatternBuilder()
    node = builder.child(builder.root, "c", name="c")
    for index in range(length):
        node = builder.child(node, f"x{index % 3}")
    builder.child(node, "k", name="p1")
    builder.child(node, "v", name="q")
    return FunctionalDependency(
        builder.pattern("p1", "q"), context="c", name=f"fd-chain-{length}"
    )


def chain_update(length: int):
    from repro.pattern.builder import PatternBuilder
    from repro.update.update_class import UpdateClass

    builder = PatternBuilder()
    node = builder.root
    for index in range(length):
        node = builder.child(node, f"y{index % 3}")
    builder.child(node, "t", name="s")
    return UpdateClass(builder.pattern("s"), name=f"u-chain-{length}")


def wide_schema(width: int):
    from repro.schema.dtd import Schema

    return Schema.from_rules(
        "r",
        {
            "r": " ".join(f"l{index}*" for index in range(width)),
            **{f"l{index}": "#text" for index in range(width)},
        },
    )


def ic_round(seed: int, round_index: int) -> list[tuple]:
    """The matrices of one ic-matrix round: ``(name, fds, updates, schema)``.

    The fixed matrices repeat every round; the random one is new per
    round and per seed.
    """
    from repro.workload.exams import exam_schema, paper_patterns
    from repro.workload.library import (
        library_fds,
        library_schema,
        library_update_classes,
    )
    from repro.workload.packages import (
        package_fds,
        package_schema,
        package_update_classes,
    )
    from repro.workload.random_patterns import (
        random_functional_dependency,
        random_update_class,
    )

    matrices = [
        (
            "chains",
            [chain_fd(length) for length in CHAIN_LENGTHS],
            [chain_update(length) for length in CHAIN_LENGTHS],
            None,
        )
    ]
    for width in SCHEMA_WIDTHS:
        matrices.append(
            (
                f"wide-{width}",
                [chain_fd(length) for length in (2, 4)],
                [chain_update(length) for length in (2, 4)],
                wide_schema(width),
            )
        )
    matrices.append(
        ("library", library_fds(), list(library_update_classes().values()), library_schema())
    )
    matrices.append(
        ("package", package_fds(), list(package_update_classes().values()), package_schema())
    )
    paper = paper_patterns()
    matrices.append(
        (
            "exam",
            [paper.fd1, paper.fd2, paper.fd3, paper.fd4, paper.fd5],
            [paper.update_class],
            exam_schema(),
        )
    )
    rng = seeded_rng(seed, "ic", round_index)
    fds = []
    updates = []
    for index in range(RANDOM_SIDE):
        fd = random_functional_dependency(rng, node_count=3, max_length=RANDOM_REGEX_LENGTH)
        fd.name = f"random-fd-{index}"
        fds.append(fd)
        update = random_update_class(rng, node_count=2, max_length=RANDOM_REGEX_LENGTH)
        update.name = f"random-u-{index}"
        updates.append(update)
    matrices.append(("random", fds, updates, None))
    return matrices


# ----------------------------------------------------------------------
# serve requests
# ----------------------------------------------------------------------

#: (FD text, update XPath) templates; ``{n}`` makes every label of an
#: instance unique to it
PAIR_TEMPLATES = (
    ("(/r{n}, ((a{n}/@k{n}) -> a{n}/v{n}))", "/r{n}/a{n}/v{n}"),
    ("(/r{n}, ((a{n}/@k{n}) -> a{n}/v{n}))", "/r{n}/a{n}/w{n}"),
    ("(/r{n}, ((a{n}/@k{n}, a{n}/c{n}) -> a{n}/v{n}))", "/r{n}/a{n}/c{n}"),
    ("(/r{n}, ((a{n}/b{n}/@k{n}) -> a{n}/b{n}/v{n}))", "/r{n}/a{n}/b{n}/v{n}"),
    ("(/r{n}, ((a{n}/b{n}/@k{n}) -> a{n}/b{n}/v{n}))", "/r{n}/d{n}/v{n}"),
    ("(/r{n}, ((a{n}/@k{n}) -> a{n}/b{n}/v{n}))", "/r{n}/a{n}/b{n}"),
)

#: requests in the hot set
HOT_SET = 32


def serve_pair(seed: int, number: int) -> tuple[str, str]:
    """Request ``number``'s (FD text, update XPath); distinct numbers never share labels."""
    rng = seeded_rng(seed, "pair", number)
    fd_template, update_template = PAIR_TEMPLATES[rng.randrange(len(PAIR_TEMPLATES))]
    label = f"s{seed}{'h' if number < 0 else 'f'}{abs(number)}"
    return fd_template.format(n=label), update_template.format(n=label)


def serve_request(seed: int, index: int) -> tuple[str, str]:
    """The closed loop's ``index``-th request: three hot ones, then a fresh one."""
    if index % 4 == 3:
        return serve_pair(seed, index)
    rng = seeded_rng(seed, "hot", index)
    return serve_pair(seed, -1 - rng.randrange(HOT_SET))


def hot_pairs(seed: int) -> list[tuple[str, str]]:
    return [serve_pair(seed, -1 - index) for index in range(HOT_SET)]
