"""diskfill: invariants and certificates for ribbon-disk fillings.

The pieces fit together like this: ``groups`` holds presentations of
disk-exterior fundamental groups and their abelianizations, ``fox``
turns a presentation plus a weight map into an Alexander polynomial over
the exact Laurent ring in ``laurent``, ``front`` models Legendrian front
diagrams with their filling moves and certificate checker, and
``kauffman`` computes the two-variable Kauffman polynomial of a PD-coded
diagram together with the Thurston-Bennequin upper bound it implies.
``cli`` wires everything to the command line; bundled data files live in
``diskfill/data``.  Every input file format shares one comment rule:
``#`` starts a comment, and a line blank without it is skipped.
"""

from importlib import resources

__version__ = "0.1.0"


def data_path(name):
    """Filesystem path of a bundled data file."""
    path = resources.files(__name__) / "data" / name
    if not path.is_file():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return path


def content_lines(text):
    """(line number from 1, line) for each line of an input file that is
    not blank once its ``#`` comment is cut and whitespace stripped.

    A list, not a generator: resuming a generator once per line costs
    more on the long fronts and certificates a replay reads.
    """
    return [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.split("#", 1)[0].strip())]


def comment_header(header):
    """The ``# `` comment lines a rendered file starts with, one per line
    of ``header``; none for None."""
    return [] if header is None else [f"# {line}" for line in header.splitlines()]
