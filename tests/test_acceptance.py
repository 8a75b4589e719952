"""End-to-end acceptance: every desk-scale claim runs at its stated tolerance.

Each criterion prints one PASS/FAIL line; the same registry backs the
`mlcr verify-paper` command.
"""

import hashlib
import inspect
import math

import pytest

from mlcr import bounds, core, generators, scripted, solver, treealgo
from mlcr.core import MultiLayerGraph, Winner
from mlcr.verify import _REGISTRY, run_criteria

# SHA-256 of each criterion's `verify-paper` stdout: its PASS line, then its
# detail lines indented by two spaces, each ending in a newline.
STDOUT_SHA256 = {
    "c01-grid": "0c61594838ecae5d9a1340be495042a60acb691cc58150dabcc6e24a0ed9b26d",
    "c02-mirror": "c40491c426998238653f4fb36222c511a9eb0a9be8aa75918dfff138ee6ea6e4",
    "c03-cycle-matchings": "f4f0a1bc73d24140187cff077449a2dbcee859bab4fd0ad5ae8206766c4360c6",
    "c04-slices": "ed7288809b3b32a9e4ccf92e5ff894356fd84514a24bcf319f076d667b08ed21",
    "c05-star-reduction": "fd9f4388d8858d7fdfa1bd41cbcfcde89b13c7c78eab9b67994f0d2b67533ee4",
    "c06-tree-robber": "1ef905f364224dfcd541819e661eea62111f131584f8094b58cb902426be95c7",
    "c07-clique-partition": "c6d4281e9f47bd085b8509a59c9b577f8ad821d5bf0df7b05b5e6256668fe085",
    "c08-clique-lower-bound": "91a07cebc2d7e620f51f32de4268ddf50e047463668e2f83519d3f3cab0e37c7",
    "c09-solver-oracle": "4c65cb2eabd337a045e22f686df4297c7c4edfab37f62ec0026b84ece708ad3d",
    "c10-monotonicity": "ee2b45cfd0dda29ce120a5b36b9d961b456b292aeb31aba6548ff6bb989dd856",
    "c11-bounds-soundness": "5f9995afad38f8c213a451a1502ea98d52a00648d6fa1151eb3566e47dcc74bf",
    "c12-pstar-density": "012fc56659a50107785c3bf337b0a7161ac83f82fb8fad88f4b26faacde1d030",
    "c13-treewidth-sweep": "933079c73b2920a6343c555b741237e0c3f9e09af9978e1808c8632cd694d8ea",
    "c14-copsbane": "2a0ddc1067767346a98012dc18737eb9e4f2372d48156d0f3375b8a5b2bdd7d4",
    "c15-determinism": "6cc44cdd1df1d5547dfa71c62cea4a02d4964c9c3bc17205c4eb8af22f0a358a",
}


def _stdout_digest(res) -> str:
    lines = [f"{'PASS' if res.passed else 'FAIL'} {res.cid} {res.title}"]
    lines.extend(f"  {line}" for line in res.details)
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def test_every_criterion_has_a_pinned_digest():
    assert sorted(STDOUT_SHA256) == sorted(cid for cid, _, _ in _REGISTRY)


@pytest.mark.parametrize("cid,title", [(cid, title) for cid, title, _ in _REGISTRY])
def test_criterion(cid, title, capsys):
    results = list(run_criteria(only=cid))
    assert len(results) == 1
    res = results[0]
    with capsys.disabled():
        status = "PASS" if res.passed else "FAIL"
        print(f"\n{status} {res.cid} ({res.elapsed:.1f}s) {res.title}")
        if not res.passed:
            for line in res.details:
                print(f"    {line}")
    assert res.passed, f"{res.cid}: " + "; ".join(res.details)
    assert _stdout_digest(res) == STDOUT_SHA256[cid]


# -- seeded faults: each row breaks code that its criteria judge, with
# monkeypatch and never by editing the package, and runs only those criteria.


def _moves_without_the_stay(monkeypatch):
    """Every move row loses its stay; an isolated vertex keeps it, so that
    no row is empty."""

    moves = MultiLayerGraph.moves
    monkeypatch.setattr(MultiLayerGraph, "moves", lambda g, layer: tuple(
        tuple(w for w in row if w != v) or (v,) for v, row in enumerate(moves(g, layer))
    ))


def _cop_views_drop_their_first_edge(monkeypatch):
    """Every cop layer's view loses its first edge, from both of its rows."""

    view = MultiLayerGraph.layer_view

    def faulty(g, layer):
        if layer is None or not g.layers[layer]:
            return view(g, layer)
        first = set(g.layers[layer][0])
        return tuple(tuple(w for w in row if {v, w} != first) for v, row in enumerate(view(g, layer)))

    monkeypatch.setattr(MultiLayerGraph, "layer_view", faulty)


def _view_rows_drop_their_last_neighbour(monkeypatch):
    """Every row of every view, the robber's too, loses its last neighbour."""

    view = MultiLayerGraph.layer_view
    monkeypatch.setattr(MultiLayerGraph, "layer_view", lambda g, layer: tuple(row[:-1] for row in view(g, layer)))


def _soifer_moves_a_class_to_the_first_layer(monkeypatch):
    sizes = generators._interval_sizes

    def shifted(total, parts):
        out = sizes(total, parts)
        out[0] += 1
        out[-1] -= 1
        return out

    monkeypatch.setattr(generators, "_interval_sizes", shifted)


def _every_tree_profile_clean(monkeypatch):
    monkeypatch.setattr(treealgo, "_profile_robbers_edge", lambda *args: None)


def _greedy_drops_its_first_pair(monkeypatch):
    greedy = bounds.domset_greedy
    monkeypatch.setattr(
        bounds, "domset_greedy", lambda g: bounds.DominatingSet(frozenset(sorted(greedy(g).pairs)[1:]))
    )


def _kernel_ranks_a_robber_state_one_successor_early(monkeypatch):
    """The retrograde kernel, compiled from its own source with one edit, in
    the solver's namespace: a robber-turn state is ranked cop-win while one
    of its successors is still open."""

    source = inspect.getsource(solver._retrograde)
    assert source.count("won = won[left == 0]") == 1
    defined = {}
    exec(compile(source.replace("won[left == 0]", "won[left <= 1]"), solver.__file__, "exec"), vars(solver), defined)
    monkeypatch.setattr(solver, "_retrograde", defined["_retrograde"])


def _driver_accepts_a_plan_at_its_first_cop_graph(monkeypatch):
    """The search driver answers with a plan as soon as one of its graphs is
    a cop win, not once every graph is."""

    def search(graphs, plans):
        for plan in plans:
            for g in graphs:
                if (yield g, plan.assignment()).winner is Winner.COP:
                    return plan

    monkeypatch.setattr(core, "_search", search)


def _pstar_one_in_a_thousand_high(monkeypatch):
    pstar = bounds.pstar
    monkeypatch.setattr(bounds, "pstar", lambda p, tau: pstar(p, tau) * 1.001)


def _treewidth_bound_one_below_the_largest_bag(monkeypatch):
    bound = bounds.treewidth_cop_bound
    monkeypatch.setattr(bounds, "treewidth_cop_bound", lambda g, decomp: bound(g, decomp) - 1)


def _copsbane_robber_sees_no_threat(monkeypatch):
    """The cops-bane robber reads every core vertex as out of every cop's reach."""

    monkeypatch.setattr(scripted.CopsbaneRobber, "_threat", lambda self, cops: [math.inf] * self.N)


FAULTS = [
    (_moves_without_the_stay, ["c03", "c06", "c09", "c10", "c11"]),
    (_cop_views_drop_their_first_edge, ["c03", "c04", "c05", "c09"]),
    (_view_rows_drop_their_last_neighbour, ["c01", "c02", "c04", "c05", "c06", "c09", "c10"]),
    (_soifer_moves_a_class_to_the_first_layer, ["c07", "c08"]),
    (_every_tree_profile_clean, ["c06"]),
    (_greedy_drops_its_first_pair, ["c11"]),
    (_kernel_ranks_a_robber_state_one_successor_early, ["c01", "c02", "c03", "c06", "c09", "c10"]),
    (_driver_accepts_a_plan_at_its_first_cop_graph, ["c10"]),
    (_pstar_one_in_a_thousand_high, ["c12"]),
    (_treewidth_bound_one_below_the_largest_bag, ["c13"]),
    (_copsbane_robber_sees_no_threat, ["c14"]),
]


@pytest.mark.parametrize("fault, cids", FAULTS, ids=[fault.__name__.lstrip("_") for fault, _ in FAULTS])
def test_a_seeded_fault_fails_the_criteria_that_judge_it(fault, cids, monkeypatch):
    fault(monkeypatch)
    for cid in cids:
        (res,) = run_criteria(only=cid)
        assert not res.passed, f"{res.cid} passed under the fault"


def test_c15_children_import_the_package_of_the_process_without_pythonpath(monkeypatch):
    """The children find the running `mlcr` even when only `sys.path` has it."""

    monkeypatch.delenv("PYTHONPATH", raising=False)
    (res,) = run_criteria(only="c15")
    assert res.passed, res.details
    assert _stdout_digest(res) == STDOUT_SHA256[res.cid]


def test_c06_peak_memory(monkeypatch):
    """c06 keeps no component sets on its 300 graphs and builds each tree
    question when it asks it, so the tree side's memory grows by its plans
    and the graphs' views alone.  Measured (tracemalloc, modules loaded):
    the tree side grows 170 KB (531 KB while graphs cached their
    components); c06 peaks at 1.76 MB in a fresh process, 1.43 MB once c06
    or c09 has run (1.83 and 1.43 MB with the cache)."""

    import tracemalloc

    traced = []
    real = treealgo.tree_verdicts

    def spy(pairs):
        traced.append(tracemalloc.get_traced_memory()[0])
        return real(pairs)

    monkeypatch.setattr(treealgo, "tree_verdicts", spy)
    tracemalloc.start()
    try:
        (res,) = run_criteria(only="c06")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed and _stdout_digest(res) == STDOUT_SHA256[res.cid]
    assert max(traced) - traced[0] < 2**18
    assert peak < 7 * 2**18
