"""The package's records: immutable, equal by their fields, and printed
as ``Name(field=value, ...)``."""

import pytest

from diskfill.fox import AlexanderMatrix
from diskfill.front import (
    Death,
    FillingCertificate,
    FillingReport,
    FrontWord,
    Move,
    OrientedFront,
    Pinch,
)
from diskfill.groups import H1Summary, Presentation, PresentationFile
from diskfill.kauffman import DiagramTrace, LinkDiagram
from diskfill.laurent import IntLaurent

UNKNOT_EVENTS = (("L", 1), ("R", 1))

# (build, the fields it compares by, its repr); build makes a new
# instance each call, so two calls give equal records that are not one
RECORDS = [
    (lambda: FrontWord(UNKNOT_EVENTS), ["events"],
     "FrontWord(events=(('L', 1), ('R', 1)))"),
    (lambda: Presentation(("x", "y"), ((1, 2, -2, -1, 2),)), ["gens", "relators"],
     "Presentation(gens=('x', 'y'), relators=((2,),))"),
    (lambda: LinkDiagram(((1, 1, 2, 2),), 1), ["crossings", "loops"],
     "LinkDiagram(crossings=((1, 1, 2, 2),), loops=1)"),
    (lambda: OrientedFront(FrontWord(UNKNOT_EVENTS), (1, -1), (0, 0), ((0, 1), (0, 1))),
     ["front", "directions", "component_of", "event_strands"],
     "OrientedFront(front=FrontWord(events=(('L', 1), ('R', 1))), directions=(1, -1), "
     "component_of=(0, 0), event_strands=((0, 1), (0, 1)))"),
    (lambda: Move("r1a+", 0, 1), ["kind", "index", "pos"],
     "Move(kind='r1a+', index=0, pos=1)"),
    (lambda: Pinch(1, 2), ["index", "pos"], "Pinch(index=1, pos=2)"),
    (lambda: Death(1), ["component"], "Death(component=1)"),
    (lambda: FillingCertificate((Pinch(1, 2), Death(1))), ["steps", "declared_surface"],
     "FillingCertificate(steps=(Pinch(index=1, pos=2), Death(component=1)), "
     "declared_surface=None)"),
    (lambda: FillingReport(1, 2, 1, 0, -1, True),
     ["pinches", "deaths", "euler", "genus", "tb", "tb_matches"],
     "FillingReport(pinches=1, deaths=2, euler=1, genus=0, tb=-1, tb_matches=True)"),
    (lambda: DiagramTrace(2, -1, None), ["components", "writhe", "target"],
     "DiagramTrace(components=2, writhe=-1, target=None)"),
    (lambda: H1Summary(1, (2,)), ["free_rank", "torsion"],
     "H1Summary(free_rank=1, torsion=(2,))"),
    (lambda: PresentationFile(Presentation(("x",), ()), ((1,),)), ["presentation", "maps"],
     "PresentationFile(presentation=Presentation(gens=('x',), relators=()), maps=((1,),))"),
    (lambda: AlexanderMatrix(((IntLaurent({0: 1, 1: -1}),),), (1,)), ["entries", "weights"],
     "AlexanderMatrix(entries=((IntLaurent(-t + 1),),), weights=(1,))"),
]


@pytest.mark.parametrize("build, fields, text", RECORDS,
                         ids=[text.partition("(")[0] for _, _, text in RECORDS])
def test_record(build, fields, text):
    a, b = build(), build()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
    assert a == b


def test_thirteen_records_are_covered():
    assert len({type(build()) for build, _, _ in RECORDS}) == 13


def test_link_diagram_equality_ignores_its_dart_map():
    a, b = LinkDiagram(((1, 1, 2, 2),)), LinkDiagram(((1, 1, 2, 2),))
    assert a.far == b.far and a.far is not b.far
    assert a == b and a != LinkDiagram(((1, 1, 2, 2),), 1)
    assert "far" not in repr(a)


def test_cached_values_survive_the_freeze():
    word = FrontWord(UNKNOT_EVENTS)
    assert word._profile == [0, 2, 0] and word._profile is word._profile
    pres = Presentation(("x",), ((1, 1),))
    assert pres._relator_runs is pres._relator_runs
