"""Parametric workload generators shared by the benchmark suite.

Every generator is deterministic so benchmark runs are comparable.
"""

from __future__ import annotations

from repro.schema import Database
from repro.service import ServiceBuilder, WebService


def chain_service(n_pages: int) -> WebService:
    """A fully propositional chain P0 -> P1 -> ... -> P{n-1} -> P0.

    Each page offers "forward" and "home" toggles; forward advances,
    home returns to P0.  Configuration count grows linearly with the
    number of pages — the Theorem 4.4/4.6 scaling workload (E4/E5).
    """
    b = ServiceBuilder(f"chain-{n_pages}")
    b.input("fwd")
    b.input("home")
    b.state("moved")
    for i in range(n_pages):
        page = b.page(f"P{i}", home=(i == 0))
        page.toggle("fwd", "home")
        page.insert("moved", "fwd")
        page.target(f"P{(i + 1) % n_pages}", "fwd & !home")
        if i != 0:
            page.target("P0", "home & !fwd")
    return b.build()


def grid_service(width: int) -> WebService:
    """A width x width page grid with right/down moves (wrapping).

    Denser transition structure than the chain: configuration count is
    quadratic in the width.
    """
    b = ServiceBuilder(f"grid-{width}")
    b.input("right")
    b.input("down")
    for i in range(width):
        for j in range(width):
            page = b.page(f"G{i}_{j}", home=(i == 0 and j == 0))
            page.toggle("right", "down")
            page.target(f"G{i}_{(j + 1) % width}", "right & !down")
            page.target(f"G{(i + 1) % width}_{j}", "down & !right")
    return b.build()


def registration_service(arity: int) -> WebService:
    """An input-bounded registration service with a parametric arity.

    The user repeatedly enters `record(x1..xk)` rows drawn from the
    database relation `allowed`; a monitor state tracks what was stored.
    Domain-size and arity sweeps over this service make the Theorem 3.5
    PSPACE-for-fixed-arity behaviour measurable (E1).
    """
    b = ServiceBuilder(f"registration-{arity}")
    b.database("allowed", arity)
    b.input("record", arity)
    b.input("done")
    b.state("stored", arity)
    b.state("closed")
    b.action("ack", arity)

    variables = tuple(f"x{i}" for i in range(arity))
    args = ", ".join(variables)

    form = b.page("FORM", home=True)
    form.toggle("done")
    form.options("record", f"allowed({args})", variables)
    form.insert("stored", f"record({args}) & !closed", variables)
    form.insert("closed", "done")
    form.target("REVIEW", "done")

    review = b.page("REVIEW")
    review.act("ack", f"stored({args})", variables)
    review.toggle("done")
    review.target("FORM", "done")
    return b.build()


def registration_database(service: WebService, domain_size: int) -> Database:
    """All-`allowed` database over a canonical domain."""
    import itertools

    arity = service.schema.database["allowed"].arity
    dom = [f"v{i}" for i in range(domain_size)]
    rows = list(itertools.product(dom, repeat=arity))
    return Database(service.schema.database, {"allowed": rows})
