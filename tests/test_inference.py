import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshreform import synthetic
from meshreform.inference import (Assignment, FactorGraph, InferenceError,
                                  PairwiseFactor, build_material_factor_graph,
                                  build_reform_factor_graph, exact_map)
from meshreform.mesh import Material
from meshreform.pipeline import PipelineConfig, analyze_model
from meshreform.synthetic import GeneratorConfig, metal_table, wood_chair


def brute_force_map(graph: FactorGraph, max_space=1_000_000) -> Assignment:
    """Test oracle: exhaustive maximization of the weighted potential, each
    class's members held to equal labels; ties resolve to the
    lexicographically first assignment."""
    sizes = [len(d) for d in graph.domains]
    space = int(np.prod(sizes, dtype=np.int64)) if sizes else 0
    if space > max_space:
        raise InferenceError(f"label space {space} exceeds {max_space}")
    total = np.zeros(sizes)
    for v, lu in enumerate(graph.log_unaries()):
        shape = [1] * len(sizes)
        shape[v] = sizes[v]
        total = total + lu.reshape(shape)
    for f, lt in zip(graph.pairwise, graph.log_tables()):
        shape = [1] * len(sizes)
        shape[f.a] = sizes[f.a]
        shape[f.b] = sizes[f.b]
        if f.a < f.b:
            total = total + lt.reshape(shape)
        else:
            total = total + lt.T.reshape(shape)
    for members in graph.classes:
        for a, b in zip(members, members[1:]):
            same = np.array([[x == y for y in graph.domains[b]]
                             for x in graph.domains[a]], dtype=bool)
            shape = [1] * len(sizes)
            shape[a] = sizes[a]
            shape[b] = sizes[b]
            same = same if a < b else same.T
            total = np.where(same.reshape(shape), total, -np.inf)
    flat = int(np.argmax(total))   # first max in C order = lexicographic
    idx = np.unravel_index(flat, sizes)
    indices = {k: int(i) for k, i in zip(graph.keys, idx)}
    labels = {k: graph.domains[v][indices[k]] for v, k in enumerate(graph.keys)}
    return Assignment(labels=labels, indices=indices,
                      log_potential=float(total[idx]), variables=graph.n_vars,
                      largest_table=total.size)


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
    out = exact_map(g)
    assert out.indices["a"] == 1      # first maximum wins the tie
    bf = brute_force_map(g)
    assert bf.indices == out.indices


def test_tree_graphs_match_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        g = random_graph(rng, n, int(rng.integers(2, 6)), random_tree_edges(rng, n))
        got = exact_map(g)
        bf = brute_force_map(g)
        assert abs(got.log_potential - bf.log_potential) < 1e-9
        assert got.indices == bf.indices


def test_loopy_with_dominant_unaries():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = 4
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        g = random_graph(rng, n, 3, edges)
        # make one label dominate each unary by a factor >= 10
        for u in g.unaries:
            u[rng.integers(len(u))] = 10.0 * u.max()
        assert exact_map(g).indices == brute_force_map(g).indices


def test_all_uniform_ties_break_to_first():
    g = FactorGraph(keys=[0, 1, 2], domains=[np.arange(3)] * 3,
                    unaries=[np.ones(3)] * 3,
                    pairwise=[PairwiseFactor(0, 1, np.ones((3, 3))),
                              PairwiseFactor(1, 2, np.ones((3, 3)))])
    got = exact_map(g)
    bf = brute_force_map(g)
    assert list(got.indices.values()) == [0, 0, 0]
    assert list(bf.indices.values()) == [0, 0, 0]


def test_unary_scaling_leaves_decoding_unchanged():
    rng = np.random.default_rng(15)
    n = 4
    g = random_graph(rng, n, 4, random_tree_edges(rng, n))
    base = exact_map(g)
    scaled = FactorGraph(keys=g.keys, domains=g.domains,
                         unaries=[u * 37.5 for u in g.unaries],
                         pairwise=g.pairwise)
    assert exact_map(scaled).indices == base.indices


def test_nonfinite_factor_rejected():
    with pytest.raises(ValueError):
        FactorGraph(keys=[0], domains=[np.arange(2)],
                    unaries=[np.array([1.0, np.inf])])
    with pytest.raises(ValueError):
        FactorGraph(keys=[0, 1], domains=[np.arange(2)] * 2,
                    unaries=[np.ones(2)] * 2,
                    pairwise=[PairwiseFactor(0, 1, np.array([[1.0, -0.1], [0, 1]]))])


@pytest.mark.parametrize("a, b, kind, match", [
    (0, -1, "contact", "missing variable"),
    (0, 2, "contact", "missing variable"),
    (0, 0, "contact", "itself"),
    (0, 2, "class", "existing variables"),
    (-1, 1, "class", "existing variables"),
])
def test_meaningless_factor_rejected(a, b, kind, match):
    """A contact factor or a class that names a missing variable, or a
    contact factor from a variable to itself."""
    if kind == "contact":
        where, parts = rf"factor 0 \({a}, {b}\)", dict(
            pairwise=[PairwiseFactor(a, b, np.ones((2, 2)))])
    else:
        where, parts = rf"class 0 \[{a}, {b}\]", dict(classes=[[a, b]])
    with pytest.raises(ValueError, match=rf"{where}.*{match}"):
        FactorGraph(keys=[0, 1], domains=[np.arange(2)] * 2,
                    unaries=[np.ones(2)] * 2, **parts)


@pytest.mark.parametrize("classes", [[[0, 1], [1]], [[0, 0]], [[]]])
def test_overlapping_or_empty_classes_rejected(classes):
    with pytest.raises(ValueError, match="disjoint|existing variables"):
        FactorGraph(keys=[0, 1], domains=[np.arange(2)] * 2,
                    unaries=[np.ones(2)] * 2, classes=classes)


def test_log_potential_of_a_split_class_is_minus_inf():
    g = FactorGraph(keys=[0, 1], domains=[np.array([3, 5]), np.array([5, 3])],
                    unaries=[np.ones(2)] * 2, classes=[[0, 1]])
    assert g.log_potential([0, 1]) == 0.0       # both take label 3
    assert g.log_potential([0, 0]) == -np.inf


def test_brute_force_space_guard():
    g = FactorGraph(keys=list(range(8)), domains=[np.arange(10)] * 8,
                    unaries=[np.ones(10)] * 8)
    with pytest.raises(InferenceError):
        brute_force_map(g, max_space=10 ** 6)


@st.composite
def class_graphs(draw):
    """Random MRFs with repetition classes, cycles and forced exact ties.

    Each variable's domain is a shuffled subset of 0..4 that holds its
    class's shared labels. The graph lists each class in shuffled member
    order, and a singleton only sometimes; contact factors join any two
    variables, inside a class or across. Ties are exact by construction:
    "uniform" gives every variable constant unaries, and "duplicate" makes
    two shared labels of a class interchangeable in its members' unaries and
    in every contact table."""
    n = draw(st.integers(1, 6))
    cls = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    ties = draw(st.sampled_from(["none", "uniform", "duplicate"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    members = {c: [v for v in range(n) if cls[v] == c] for c in set(cls)}
    shared = {c: rng.choice(5, size=rng.integers(1, 4), replace=False) for c in members}
    domains = []
    for v in range(n):
        extra = rng.choice(5, size=rng.integers(0, 3), replace=False)
        domains.append(rng.permutation(np.union1d(shared[cls[v]], extra)))
    unaries = [np.full(len(d), 0.5) if ties == "uniform"
               else rng.uniform(0.05, 1.0, len(d)) for d in domains]
    classes = [[int(v) for v in rng.permutation(vs)] for vs in members.values()
               if len(vs) > 1 or rng.random() < 0.5]
    pairwise = []
    for _ in range(draw(st.integers(0, 8)) if n > 1 else 0):
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        table = rng.uniform(0.05, 1.0, (len(domains[a]), len(domains[b])))
        pairwise.append(PairwiseFactor(a, b, table, weight=float(rng.choice([0.1, 1.0]))))
    if ties == "duplicate":
        for c, vs in members.items():
            if len(shared[c]) < 2:
                continue
            x, y = shared[c][:2]
            for v in vs:
                ix, iy = (int(np.flatnonzero(domains[v] == val)[0]) for val in (x, y))
                unaries[v][iy] = unaries[v][ix]
                for f in pairwise:
                    if f.a == v:
                        f.table[iy, :] = f.table[ix, :]
                    if f.b == v:
                        f.table[:, iy] = f.table[:, ix]
    return FactorGraph(keys=[f"v{v}" for v in range(n)], domains=domains,
                       unaries=unaries, pairwise=pairwise, classes=classes)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graph=class_graphs())
def test_exact_map_matches_brute_force(graph):
    got = exact_map(graph)
    bf = brute_force_map(graph)
    assert got.indices == bf.indices
    assert abs(got.log_potential - bf.log_potential) < 1e-9
    for members in graph.classes:
        assert len({got.labels[graph.keys[v]] for v in members}) == 1


def test_repetition_class_without_shared_label_errors():
    domains = [np.array([0, 1]), np.array([1, 2]), np.array([2, 3])]
    g = FactorGraph(keys=["a", "b", "c"], domains=domains,
                    unaries=[np.ones(2)] * 3, classes=[[2, 0, 1]])
    with pytest.raises(InferenceError, match=r"repetition class \['a', 'b', 'c'\]"):
        exact_map(g)


def test_repetition_class_collapses_to_one_variable():
    """Members share labels 2 and 1, in the first member's order; the contact
    factor inside the class scores only its diagonal, which prefers 1."""
    domains = [np.array([2, 0, 1]), np.array([1, 2]), np.array([3, 4])]
    inside = PairwiseFactor(0, 1, np.array([[1.0, 0.2], [1.0, 1.0], [1.0, 1.0]]))
    across = PairwiseFactor(2, 1, np.ones((2, 2)))
    g = FactorGraph(keys=["a", "b", "c"], domains=domains,
                    unaries=[np.ones(3), np.ones(2), np.array([0.5, 1.0])],
                    pairwise=[inside, across], classes=[[0, 1]])
    out = exact_map(g)
    assert out.variables == 2
    assert out.labels == {"a": 1, "b": 1, "c": 4}
    assert out.indices == {"a": 2, "b": 0, "c": 1}
    assert out.indices == brute_force_map(g).indices


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
    # one target: the graph's classes are the congruence classes
    classes = chair_analysis.repetition_graph.classes
    assert max(map(len, classes)) > 1
    assert [[g.keys[v] for v in members] for members in g.classes] == classes
    assert g.pairwise and all(f.weight == 0.1 for f in g.pairwise)


def test_reform_congruent_parts_get_same_label(chair_analysis, small_db):
    targets = {pid: Material.METAL for pid in chair_analysis.descriptors}
    g = build_reform_factor_graph(chair_analysis.descriptors,
                                  chair_analysis.contact_graph,
                                  chair_analysis.repetition_graph,
                                  targets, small_db)
    out = exact_map(g)
    for members in chair_analysis.repetition_graph.classes:
        assert len({out.labels[pid] for pid in members}) == 1


def test_reform_ties_only_congruent_parts_with_one_target(chair_analysis, small_db):
    """Per-part targets may give congruent parts different materials; those
    parts share no candidate, so the class splits by target."""
    members = next(c for c in chair_analysis.repetition_graph.classes if len(c) > 1)
    i, j = members[:2]
    targets = {pid: Material.WOOD for pid in chair_analysis.descriptors}
    targets[j] = Material.METAL
    g = build_reform_factor_graph(chair_analysis.descriptors,
                                  chair_analysis.contact_graph,
                                  chair_analysis.repetition_graph,
                                  targets, small_db)
    tied = [[g.keys[v] for v in c] for c in g.classes]
    assert [p for p in members if p != j] in tied and [j] in tied
    assert all(len({targets[pid] for pid in c}) == 1 for c in tied)
    out = exact_map(g)
    assert small_db.part(int(out.labels[j])).material == Material.METAL
    assert small_db.part(int(out.labels[i])).material == Material.WOOD


def test_reform_single_part_no_contacts(small_db):
    from conftest import make_box_part
    from meshreform.mesh import Model, normalize_model, sample_surface
    from meshreform.part_analysis import analyze_part
    from meshreform.graphs import ContactGraph, RepetitionGraph
    model = normalize_model(Model(parts=[make_box_part(0, [0, 0, 0], [1, 0.08, 0.08])]))
    p = model.parts[0]
    desc = analyze_part(p, sample_surface(p, 500, seed=0))
    g = build_reform_factor_graph({0: desc}, ContactGraph(nodes=[0]),
                                  RepetitionGraph(classes=[[0]]),
                                  {0: Material.WOOD}, small_db)
    assert g.n_vars == 1 and g.pairwise == []
    out = exact_map(g)
    assert out.variables == 1 and out.largest_table == len(g.domains[0])


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
    out = exact_map(g)
    assert all(m == Material.WOOD for m in out.labels.values())


def test_material_suggestion_metal_frame(small_db, small_gen_config_module):
    rng = np.random.default_rng(55)
    src = metal_table(rng, small_gen_config_module).source("mt")
    cfg = PipelineConfig(contact_samples=3000)
    analysis = analyze_model(src.model, cfg)
    g = build_material_factor_graph(analysis.descriptors, analysis.contact_graph,
                                    analysis.repetition_graph, small_db)
    out = exact_map(g)
    assert all(m == Material.METAL for m in out.labels.values())


def test_material_graph_skips_contacts_inside_a_repetition_class(small_db):
    """Two congruent boards side by side on a crossbar: the boards' contact
    with each other gets no factor, their contacts with the crossbar do."""
    from conftest import make_box_part
    from meshreform.mesh import Model
    parts = [make_box_part(0, [0, 0, 0], [1.0, 0.1, 0.02]),
             make_box_part(1, [0, 0.1, 0], [1.0, 0.1, 0.02]),
             make_box_part(2, [0, 0.05, -0.04], [0.05, 0.4, 0.06])]
    analysis = analyze_model(Model(parts=parts), PipelineConfig(contact_samples=3000))
    assert analysis.repetition_graph.classes == [[0, 1], [2]]
    assert {e.key() for e in analysis.contact_graph.part_edges()} == {(0, 1), (0, 2), (1, 2)}
    g = build_material_factor_graph(analysis.descriptors, analysis.contact_graph,
                                    analysis.repetition_graph, small_db)
    contacts = {(g.keys[f.a], g.keys[f.b]) for f in g.pairwise}
    assert contacts == {(0, 2), (1, 2)}


def test_material_map_matches_brute_force(chair_analysis, small_db):
    g = build_material_factor_graph(chair_analysis.descriptors,
                                    chair_analysis.contact_graph,
                                    chair_analysis.repetition_graph, small_db)
    got = exact_map(g)
    bf = brute_force_map(g)
    assert got.indices == bf.indices


GENERATORS = [g for gens in synthetic._VARIANTS.values() for _, g in gens]


@pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
def test_generated_models_hold_each_class_to_one_label(generator, small_db):
    """For every generator over seeds 0-2, the repetition classes partition
    the part ids, the material MAP gives each class one label, and the
    reform MAP gives each class's parts of one target one label. Targets
    alternate by part id, so congruent parts often differ in target."""
    for seed in range(3):
        src = generator(np.random.default_rng(seed), GeneratorConfig()).source("m")
        analysis = analyze_model(src.model, PipelineConfig(contact_samples=1000))
        classes = analysis.repetition_graph.classes
        ids = sorted(analysis.descriptors)
        assert sorted(pid for c in classes for pid in c) == ids
        assert classes == sorted(map(sorted, classes), key=min)
        args = (analysis.descriptors, analysis.contact_graph, analysis.repetition_graph)
        materials = exact_map(build_material_factor_graph(*args, small_db)).labels
        targets = {pid: (Material.WOOD, Material.METAL)[pid % 2] for pid in ids}
        reform = exact_map(build_reform_factor_graph(*args, targets, small_db)).labels
        for members in classes:
            assert len({materials[pid] for pid in members}) == 1
            for target in (Material.WOOD, Material.METAL):
                same = [pid for pid in members if targets[pid] == target]
                assert len({int(reform[pid]) for pid in same}) <= 1
