import numpy as np
import pytest

from meshreform.inference import (Assignment, FactorGraph, InferenceError,
                                  PairwiseFactor, brute_force_map,
                                  build_material_factor_graph,
                                  build_reform_factor_graph, run_loopy_bp)
from meshreform.mesh import Material
from meshreform.pipeline import PipelineConfig, analyze_model
from meshreform.synthetic import GeneratorConfig, metal_table, wood_chair


def random_graph(rng, n_vars, n_labels, edges, unary_low=0.1):
    domains = [np.arange(n_labels) for _ in range(n_vars)]
    unaries = [rng.uniform(unary_low, 1.0, n_labels) for _ in range(n_vars)]
    pairwise = [PairwiseFactor(a, b, rng.uniform(0.05, 1.0, (n_labels, n_labels)),
                               weight=rng.choice([0.1, 1.0]))
                for a, b in edges]
    return FactorGraph(keys=list(range(n_vars)), domains=domains,
                       unaries=unaries, pairwise=pairwise)


def random_tree_edges(rng, n):
    return [(int(rng.integers(0, k)), k) for k in range(1, n)]


def test_single_variable_is_unary_argmax():
    g = FactorGraph(keys=["a"], domains=[np.arange(4)],
                    unaries=[np.array([0.1, 0.9, 0.3, 0.9])])
    out = run_loopy_bp(g)
    assert out.indices["a"] == 1      # first maximum wins the tie
    assert out.converged
    bf = brute_force_map(g)
    assert bf.indices == out.indices


def test_tree_graphs_match_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        g = random_graph(rng, n, int(rng.integers(2, 6)), random_tree_edges(rng, n))
        bp = run_loopy_bp(g)
        bf = brute_force_map(g)
        assert bp.converged
        assert abs(bp.log_potential - bf.log_potential) < 1e-9
        assert bp.indices == bf.indices


def test_loopy_with_dominant_unaries():
    rng = np.random.default_rng(14)
    agree = 0
    for _ in range(30):
        unaries = []
        n = 4
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        g = random_graph(rng, n, 3, edges)
        # make one label dominate each unary by a factor >= 10
        for u in g.unaries:
            u[rng.integers(len(u))] = 10.0 * u.max()
        bp = run_loopy_bp(g)
        bf = brute_force_map(g)
        agree += bp.indices == bf.indices
    assert agree >= 0.95 * 30


def test_all_uniform_ties_break_to_first():
    g = FactorGraph(keys=[0, 1, 2], domains=[np.arange(3)] * 3,
                    unaries=[np.ones(3)] * 3,
                    pairwise=[PairwiseFactor(0, 1, np.ones((3, 3))),
                              PairwiseFactor(1, 2, np.ones((3, 3)))])
    bp = run_loopy_bp(g)
    bf = brute_force_map(g)
    assert list(bp.indices.values()) == [0, 0, 0]
    assert list(bf.indices.values()) == [0, 0, 0]


def test_unary_scaling_leaves_decoding_unchanged():
    rng = np.random.default_rng(15)
    n = 4
    g = random_graph(rng, n, 4, random_tree_edges(rng, n))
    base = run_loopy_bp(g)
    scaled = FactorGraph(keys=g.keys, domains=g.domains,
                         unaries=[u * 37.5 for u in g.unaries],
                         pairwise=g.pairwise)
    assert run_loopy_bp(scaled).indices == base.indices


def test_nonfinite_factor_rejected():
    with pytest.raises(ValueError):
        FactorGraph(keys=[0], domains=[np.arange(2)],
                    unaries=[np.array([1.0, np.inf])])
    with pytest.raises(ValueError):
        FactorGraph(keys=[0, 1], domains=[np.arange(2)] * 2,
                    unaries=[np.ones(2)] * 2,
                    pairwise=[PairwiseFactor(0, 1, np.array([[1.0, -0.1], [0, 1]]))])


def test_brute_force_space_guard():
    g = FactorGraph(keys=list(range(8)), domains=[np.arange(10)] * 8,
                    unaries=[np.ones(10)] * 8)
    with pytest.raises(InferenceError):
        brute_force_map(g, max_space=10 ** 6)


# ---------------------------------------------------------------------------
# graph construction against the synthetic database
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def chair_analysis(small_gen_config_module):
    rng = np.random.default_rng(99)
    src = wood_chair(rng, small_gen_config_module).source("chair")
    cfg = PipelineConfig(contact_samples=3000)
    return analyze_model(src.model, cfg)


@pytest.fixture(scope="module")
def small_gen_config_module():
    return GeneratorConfig(scale=0.08)


def test_reform_graph_structure(chair_analysis, small_db):
    targets = {pid: Material.WOOD for pid in chair_analysis.descriptors}
    g = build_reform_factor_graph(chair_analysis.descriptors,
                                  chair_analysis.contact_graph,
                                  chair_analysis.repetition_graph,
                                  targets, small_db)
    assert g.n_vars == len(chair_analysis.descriptors)
    # domains only contain wood candidates
    for dom in g.domains:
        assert all(small_db.part(int(c)).material == Material.WOOD for c in dom)
    kinds = {f.kind for f in g.pairwise}
    assert kinds == {"contact", "repetition"}
    rep = [f for f in g.pairwise if f.kind == "repetition"]
    assert rep and all(f.weight == 20.0 for f in rep)
    for f in rep:
        table = f.table
        eye = (g.domains[f.a][:, None] == g.domains[f.b][None, :]).astype(float)
        assert np.array_equal(table, eye)
    con = [f for f in g.pairwise if f.kind == "contact"]
    assert con and all(f.weight == 0.1 for f in con)


def test_reform_congruent_parts_get_same_label(chair_analysis, small_db):
    targets = {pid: Material.METAL for pid in chair_analysis.descriptors}
    g = build_reform_factor_graph(chair_analysis.descriptors,
                                  chair_analysis.contact_graph,
                                  chair_analysis.repetition_graph,
                                  targets, small_db)
    out = run_loopy_bp(g)
    for i, j in chair_analysis.repetition_graph.edges:
        assert out.labels[i] == out.labels[j]


def test_reform_single_part_no_contacts(small_db):
    from conftest import make_box_part
    from meshreform.mesh import Model, normalize_model, sample_surface
    from meshreform.part_analysis import analyze_part
    from meshreform.graphs import ContactGraph, RepetitionGraph
    model = normalize_model(Model(parts=[make_box_part(0, [0, 0, 0], [1, 0.08, 0.08])]))
    p = model.parts[0]
    desc = analyze_part(p, sample_surface(p, 500, seed=0))
    g = build_reform_factor_graph({0: desc}, ContactGraph(nodes=[0]),
                                  RepetitionGraph(nodes=[0]),
                                  {0: Material.WOOD}, small_db)
    assert g.n_vars == 1 and g.pairwise == []
    out = run_loopy_bp(g)
    assert out.converged


def test_reform_impossible_material_errors(chair_analysis, small_db):
    import dataclasses
    db = dataclasses.replace(small_db)
    db.parts = [dataclasses.replace(p, material=Material.WOOD) for p in small_db.parts]
    targets = {pid: Material.METAL for pid in chair_analysis.descriptors}
    with pytest.raises(InferenceError, match="no candidate matches"):
        build_reform_factor_graph(chair_analysis.descriptors,
                                  chair_analysis.contact_graph,
                                  chair_analysis.repetition_graph,
                                  targets, db)


def test_compact_flag_adds_area_kernel(chair_analysis, small_db):
    """Metal candidates include arcs with small area ratios, so the compact
    unary visibly differs from the plain OBB-only one."""
    from meshreform.similarity import shape_matrix
    targets = {pid: Material.METAL for pid in chair_analysis.descriptors}
    plain = build_reform_factor_graph(chair_analysis.descriptors,
                                      chair_analysis.contact_graph,
                                      chair_analysis.repetition_graph,
                                      targets, small_db)
    compact = build_reform_factor_graph(chair_analysis.descriptors,
                                        chair_analysis.contact_graph,
                                        chair_analysis.repetition_graph,
                                        targets, small_db,
                                        compact=set(targets))
    pid = plain.keys[0]
    v = compact.keys.index(pid)
    cand_descs = [small_db.part(int(c)).descriptor for c in compact.domains[v]]
    expected = (shape_matrix([chair_analysis.descriptors[pid]], cand_descs,
                             mode="obb_plus_area")[0])
    assert np.allclose(compact.unaries[v], expected, atol=1e-12)
    assert not np.allclose(compact.unaries[v],
                           plain.unaries[plain.keys.index(pid)])


def test_material_suggestion_wood_chair(chair_analysis, small_db):
    g = build_material_factor_graph(chair_analysis.descriptors,
                                    chair_analysis.contact_graph,
                                    chair_analysis.repetition_graph, small_db)
    out = run_loopy_bp(g)
    assert all(m == Material.WOOD for m in out.labels.values())


def test_material_suggestion_metal_frame(small_db, small_gen_config_module):
    rng = np.random.default_rng(55)
    src = metal_table(rng, small_gen_config_module).source("mt")
    cfg = PipelineConfig(contact_samples=3000)
    analysis = analyze_model(src.model, cfg)
    g = build_material_factor_graph(analysis.descriptors, analysis.contact_graph,
                                    analysis.repetition_graph, small_db)
    out = run_loopy_bp(g)
    assert all(m == Material.METAL for m in out.labels.values())


def test_material_map_matches_brute_force(chair_analysis, small_db):
    g = build_material_factor_graph(chair_analysis.descriptors,
                                    chair_analysis.contact_graph,
                                    chair_analysis.repetition_graph, small_db)
    bp = run_loopy_bp(g)
    bf = brute_force_map(g)
    assert bp.indices == bf.indices


def test_messages_normalized_property():
    """Beliefs are finite and decoding is stable when potentials span many
    orders of magnitude (message normalization at work)."""
    rng = np.random.default_rng(17)
    g = random_graph(rng, 5, 4, random_tree_edges(rng, 5))
    big = FactorGraph(keys=g.keys, domains=g.domains,
                      unaries=[u * 1e200 for u in g.unaries],
                      pairwise=g.pairwise)
    a = run_loopy_bp(g)
    b = run_loopy_bp(big)
    assert a.indices == b.indices
    assert np.isfinite(b.log_potential)
