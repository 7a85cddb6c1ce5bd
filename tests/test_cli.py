import hashlib

import pytest

from raag.cli import main
from raag.graphs import complete_graph, format_graph

P4C_TEXT = "graph L\nvertices: a b c d\nedges: a-c a-d b-d\n"
EDGE_TEXT = "graph E\nvertices: a b\nedges: a-b\n"
FREE_TEXT = "graph F\nvertices: a b\nedges:\n"


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="g.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reduce_and_canon(capsys, graph_file):
    g = graph_file(EDGE_TEXT)
    code, out, _ = run(capsys, ["reduce", "--graph", g, "a b a^-1"])
    assert code == 0 and out == "reduced: b\n"
    code, out, _ = run(capsys, ["canon", "--graph", g, "b a"])
    assert code == 0 and out == "canonical: a b\n"


def test_triv_and_support(capsys, graph_file):
    g = graph_file(FREE_TEXT)
    code, out, _ = run(capsys, ["triv", "--graph", g, "a b a^-1 b^-1"])
    assert code == 0 and out == "trivial: false\n"
    code, out, _ = run(capsys, ["support", "--graph", g, "a b^-1 a"])
    assert out == "support: a b\n"


def test_commute(capsys, graph_file):
    g = graph_file(EDGE_TEXT)
    code, out, _ = run(capsys, ["commute", "--graph", g, "a", "b"])
    assert code == 0 and out == "commute: true\n"


def test_complement_plain_and_dot(capsys, graph_file):
    g = graph_file(P4C_TEXT)
    code, out, _ = run(capsys, ["complement", "--graph", g])
    assert code == 0
    assert out == "graph L_c\nvertices: a b c d\nedges: a-b b-c c-d\n"
    code, out, _ = run(capsys, ["complement", "--graph", g, "--format", "dot"])
    assert out.startswith('graph "L_c" {')


def test_decompose_and_recognize(capsys, graph_file):
    g = graph_file(P4C_TEXT)
    code, out, _ = run(capsys, ["decompose", "--graph", g])
    assert code == 0
    assert "components: 1" in out and "kind1: path-complement" in out
    code, out, _ = run(capsys, ["recognize", "--graph", g])
    assert "linear_forest_complement: true" in out
    assert "labeling1: a b c d" in out


def test_embed_search_found_and_not(capsys, graph_file, tmp_path):
    lam = graph_file("graph lam\nvertices: u1 u2\nedges: u1-u2\n", "lam.txt")
    k3 = graph_file(format_graph(complete_graph(3)), "k3.txt")
    code, out, _ = run(capsys, ["embed-search", "--graph", lam, "--target", k3])
    assert code == 0
    assert "found: true" in out and "embed u1 -> v1" in out
    free = graph_file("graph lam2\nvertices: u1 u2\nedges:\n", "lam2.txt")
    code, out, _ = run(capsys, ["embed-search", "--graph", free, "--target", k3])
    assert code == 2 and "found: false" in out


def test_embed_search_restrict(capsys, graph_file):
    lam = graph_file("graph lam\nvertices: u1 u2\nedges: u1-u2\n", "lam.txt")
    k4 = graph_file(format_graph(complete_graph(4)), "k4.txt")
    code, out, _ = run(
        capsys, ["embed-search", "--graph", lam, "--target", k4, "--restrict", "v2,v4"]
    )
    assert code == 0 and "embed u1 -> v2" in out and "embed u2 -> v4" in out
    # an empty --restrict is the empty subset, where nothing embeds
    code, out, _ = run(capsys, ["embed-search", "--graph", lam, "--target", k4, "--restrict", ""])
    assert code == 2 and out == "found: false\n"


def test_ext_ball_plain_and_dot(capsys, graph_file):
    g = graph_file(FREE_TEXT)
    code, out, _ = run(capsys, ["ext-ball", "--graph", g, "--radius", "1"])
    assert code == 0
    assert out.startswith("graph F_ball1\n")
    assert "a@b^-1.a.b" in out
    code, out, _ = run(capsys, ["ext-ball", "--graph", g, "--radius", "0", "--format", "dot"])
    assert '"a@a";' in out


@pytest.mark.parametrize("text, vertices, digest", [
    ("graph C5\nvertices: a b c d e\nedges: a-b b-c c-d d-e e-a\n", 145,
     "cc7805a16556dd4b5647744d0d37a76b50b90dd240fc3d7aa8feae088ad99111"),
    ("graph P5c\nvertices: a b c d e\nedges: a-c a-d a-e b-d b-e c-e\n", 105,
     "405949a3af486d5bac232655a446280694be7bf289ac3b4abad5eb8491e868b1"),
])
def test_ext_ball_output_is_pinned(capsys, graph_file, text, vertices, digest):
    # the whole plain output of a radius-2 ball: vertex names, their order
    # and every edge
    code, out, _ = run(capsys, ["ext-ball", "--graph", graph_file(text), "--radius", "2"])
    assert code == 0
    assert len(out.splitlines()[1].split()) == vertices + 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _hom_files(tmp_path, images_lines, source_text=P4C_TEXT, target_text=P4C_TEXT):
    (tmp_path / "src.txt").write_text(source_text)
    (tmp_path / "tgt.txt").write_text(target_text)
    hom = tmp_path / "h.txt"
    hom.write_text("hom\nsource: src.txt\ntarget: tgt.txt\n" + images_lines)
    return str(hom)


def test_check_hom(capsys, tmp_path):
    hom = _hom_files(tmp_path, "map a = a\nmap b = b\nmap c = c\nmap d = d\n")
    code, out, _ = run(capsys, ["check-hom", "--hom", hom])
    assert code == 0
    assert "homomorphism: true" in out
    assert "clique_support: true" in out
    assert "supp: a b c d" in out


def test_check_hom_reports_every_failure(capsys, tmp_path):
    # a -> a b spans the non-edge a-b, and does not commute with c's image b
    # although a-c is an edge of the source; b is mapped to the identity
    hom = _hom_files(tmp_path, "map a = a b\nmap b = 1\nmap c = b\nmap d = d\n")
    code, out, _ = run(capsys, ["check-hom", "--hom", hom])
    assert code == 0
    assert out == (
        "homomorphism: false\n"
        "relator_failure: a c\n"
        "clique_support: false\n"
        "clique_support_violation: a : a b\n"
        "supp: a b d\n"
        "trivial_image: b\n"
    )


def test_extract_embedding_exit_zero(capsys, tmp_path):
    hom = _hom_files(tmp_path, "map a = a\nmap b = b\nmap c = c\nmap d = d\n")
    code, out, _ = run(capsys, ["extract", "--hom", hom])
    assert code == 0
    assert "result: embedding" in out
    assert "embed a -> a" in out and "verified: true" in out


def test_extract_witness_exit_two(capsys, tmp_path):
    hom = _hom_files(tmp_path, "map a = a\nmap b = a a\nmap c = a^-1\nmap d = a\n")
    code, out, _ = run(capsys, ["extract", "--hom", hom])
    assert code == 2
    assert "result: witness" in out
    assert "witness " in out
    assert "witness_nontrivial: true" in out
    assert "witness_image_trivial: true" in out


def test_extract_witness_flags_come_from_the_word(capsys, tmp_path, monkeypatch):
    # a forged witness that claims both facts: the printed flags come from
    # the word itself, so the nontrivial image shows
    import raag.cli
    from raag.embedding import KernelWitness
    from raag.words import Word

    hom = _hom_files(tmp_path, "map a = a\nmap b = b\nmap c = c\nmap d = d\n")
    monkeypatch.setattr(
        raag.cli, "extract_full", lambda h: KernelWitness(Word(h.source, (("a", 1),)), True, True)
    )
    code, out, _ = run(capsys, ["extract", "--hom", hom])
    assert code == 2
    assert "witness_nontrivial: true" in out
    assert "witness_image_trivial: false" in out


def test_extract_certificate_exit_two(capsys, tmp_path):
    p3c = "graph P3c\nvertices: v1 v2 v3\nedges: v1-v3\n"
    k3 = format_graph(complete_graph(3, prefix="t"))
    hom_lines = "map v1 = t1\nmap v2 = t2\nmap v3 = t3\n"
    hom = _hom_files(tmp_path, hom_lines, source_text=p3c, target_text=k3)
    code, out, _ = run(capsys, ["extract", "--hom", hom])
    assert code == 2
    assert "result: certificate" in out
    assert "certificate complement-of-supp-is-union-of-cliques" in out


def test_extract_rejects_non_homomorphism(capsys, tmp_path):
    k2 = "graph K2\nvertices: u1 u2\nedges: u1-u2\n"
    free = "graph F\nvertices: a b\nedges:\n"
    hom = _hom_files(tmp_path, "map u1 = a\nmap u2 = b\n", source_text=k2, target_text=free)
    code, out, err = run(capsys, ["extract", "--hom", hom])
    assert code == 1
    assert "not a homomorphism" in err


def test_json_mode_strips_prose(capsys, tmp_path, graph_file):
    hom = _hom_files(tmp_path, "map a = a\nmap b = b\nmap c = c\nmap d = d\n")
    code, out, _ = run(capsys, ["extract", "--hom", hom, "--json"])
    assert code == 0
    assert "full embedding found" not in out
    assert out.splitlines()[0] == "result: embedding"
    # only extract prints prose, so only extract takes --json
    code, out, err = run(capsys, ["reduce", "--graph", graph_file(EDGE_TEXT), "--json", "a"])
    assert code == 1 and out == ""
    assert err == "usage error: unrecognized arguments: --json\n"


def test_verify_reports_and_is_reproducible(capsys):
    code, out1, _ = run(capsys, ["verify", "--trials", "8", "--seed", "3"])
    assert code == 0
    code, out2, _ = run(capsys, ["verify", "--trials", "8", "--seed", "3"])
    assert out1 == out2
    assert "trials: 8" in out1 and "failed_invariants: 0" in out1


def test_verify_report_pinned_across_commits(capsys):
    code, out, _ = run(capsys, ["verify", "--trials", "25", "--seed", "2017"])
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "aa4caeb5be5b77e597fca801ea19d0ab0466ea69cabd1896af2dec0f9f4aa3e2"


def test_verify_density_flag(capsys):
    code, out, _ = run(capsys, ["verify", "--trials", "4", "--seed", "3", "--density", "0.9"])
    assert code == 0 and "edge_density: 0.9" in out


def test_verify_rejects_empty_target_range(capsys):
    code, out, err = run(capsys, ["verify", "--trials", "4", "--seed", "3", "--max-target", "0"])
    assert code == 1 and out == ""
    assert err == "error: max target vertices must be >= 1\n"


def test_verify_rejects_negative_seed(capsys):
    # random.Random(-5) runs the trials of seed 5 under the heading "seed: -5"
    code, out, err = run(capsys, ["verify", "--trials", "4", "--seed", "-5"])
    assert (code, out, err) == (1, "", "error: seed must be >= 0\n")


def test_usage_error_exit_one(capsys):
    code, _, err = run(capsys, ["reduce"])
    assert code == 1 and "usage error" in err


def test_missing_file_exit_one(capsys):
    code, _, err = run(capsys, ["reduce", "--graph", "/nonexistent/g.txt", "a"])
    assert code == 1 and "error:" in err


def test_bad_word_exit_one(capsys, graph_file):
    g = graph_file(EDGE_TEXT)
    code, _, err = run(capsys, ["triv", "--graph", g, "a z"])
    assert code == 1 and "unknown generator" in err


def test_main_runs_again_in_one_process(capsys, graph_file):
    # the parser is built once per process; a usage error must not leave
    # state behind for the next call
    g = graph_file(EDGE_TEXT)
    code, out, err = run(capsys, ["reduce", "--graph", g, "a b a^-1"])
    assert (code, out, err) == (0, "reduced: b\n", "")
    code, out, err = run(capsys, ["commute", "--graph", g])
    assert code == 1 and out == "" and err.startswith("usage error: ")
    code, out, err = run(capsys, ["commute", "--graph", g, "a", "b"])
    assert (code, out, err) == (0, "commute: true\n", "")
    code, out, err = run(capsys, ["verify", "--trials", "3", "--seed", "5"])
    assert code == 0 and out.startswith("raag verification harness\ntrials: 3\nseed: 5\n")


def test_kernel_subcommand(capsys):
    code, out, _ = run(capsys, ["kernel"])
    assert code == 0 and out.startswith("kernel: ")
