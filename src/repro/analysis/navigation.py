"""Navigation-graph analyses.

These are *syntactic* checks over the page/target-rule graph — cheap
over-approximations of run-level reachability (a target rule whose
formula is unsatisfiable still counts as an edge here).  For exact
reachability on a concrete database use the verifier's configuration
graph (``EF page`` via :mod:`repro.verifier.branching`).
"""

from __future__ import annotations

from repro.service.webservice import WebService


def page_graph(service: WebService) -> dict[str, tuple[str, ...]]:
    """The static page graph as a successor map, in declaration order:
    each page first, then its target-rule targets (one edge per target).
    The page itself is the implicit self-loop (Definition 2.3: when no
    target fires, the run stays on the current page)."""
    return {
        page.name: tuple(dict.fromkeys(
            [page.name] + [rule.target for rule in page.target_rules]
        ))
        for page in service.pages.values()
    }


def shortest_paths(
    graph: dict[str, tuple[str, ...]], source: str
) -> dict[str, tuple[str, ...]]:
    """A shortest path from ``source`` to every page it reaches (BFS,
    successors in graph order; ``source`` maps to ``(source,)``)."""
    paths = {source: (source,)}
    frontier = [source]
    while frontier:
        nexts = []
        for page in frontier:
            for succ in graph.get(page, ()):
                if succ not in paths:
                    paths[succ] = paths[page] + (succ,)
                    nexts.append(succ)
        frontier = nexts
    return paths


def reachable_pages(service: WebService) -> frozenset[str]:
    """Pages reachable from the home page in the static page graph."""
    return frozenset(shortest_paths(page_graph(service), service.home))


def unreachable_pages(service: WebService) -> frozenset[str]:
    """Declared pages no chain of target rules can reach — dead weight
    in the specification."""
    return service.page_names - reachable_pages(service)


def dead_target_rules(service: WebService) -> list[str]:
    """Target rules that are trivially dead: the rule's formula is the
    constant *false* after simplification."""
    from repro.fol.formulas import Bottom
    from repro.fol.transforms import simplify

    dead = []
    for page in service.pages.values():
        for rule in page.target_rules:
            if isinstance(simplify(rule.formula), Bottom):
                dead.append(f"page {page.name}: target rule {rule.target} <- false")
    return dead


def navigation_report(service: WebService) -> str:
    """Human-readable navigation audit."""
    graph = page_graph(service)
    unreachable = sorted(unreachable_pages(service))
    dead = dead_target_rules(service)
    sinks = sorted(p for p in service.pages if set(graph[p]) <= {p})
    n_edges = sum(len(succs) for succs in graph.values())
    lines = [
        f"navigation audit for {service.name!r}",
        f"  pages: {len(service.pages)}, target-rule edges: "
        f"{n_edges - len(service.pages)}",
        f"  home page: {service.home}",
    ]
    lines.append(
        "  unreachable pages: " + (", ".join(unreachable) or "none")
    )
    lines.append(
        "  terminal pages (no outgoing target rule): "
        + (", ".join(sinks) or "none")
    )
    if dead:
        lines.append("  dead target rules:")
        lines.extend(f"    - {d}" for d in dead)
    else:
        lines.append("  dead target rules: none")
    return "\n".join(lines)
