"""Golden transcript of the fmlat command line.

Each line below runs on its own through run_cli.  The transcript records
it the way run_script does ("$ line", then the output) and adds its exit
code as a "# exit N" comment.  The lines cover every subcommand in plain
and --records form, definitions loaded with --defs, each negative result
under --strict, and usage and input errors.  The empty line is the call
with no arguments at all.  The test replays the transcript three times:
as it finds the --defs catalog cache, warm, and cold after clearing it.

After an intended change of output, rewrite the transcript from the
repository root with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import shlex
from pathlib import Path

from fmlattice.cli import _catalog_for, run_cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.txt"

BENCH = "--defs bench/defs/enriques_k3.defs"
EXTRA = "--defs tests/data/golden.defs --allow-invalid"
I4 = "[1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1]"
SWAP4 = "[1,0,0,0;0,0,1,0;0,1,0,0;0,0,0,1]"
I12 = "[" + ";".join(",".join("1" if i == j else "0" for j in range(12)) for i in range(12)) + "]"
ZERO10 = ",".join("0" * 10)
B2 = "--cover-y bielliptic_cover_2 --cover-x bielliptic_cover_2"
E10 = "--cover-y bench_enriques_cover --cover-x bench_enriques_cover"
SPLIT = "--cover-y golden_split_cover --cover-x golden_split_cover"
BAD = "--cover-y golden_bad_cover --cover-x golden_bad_cover"
K3_18 = "--cover-y enriques_k3_18_cover --cover-x enriques_k3_18_cover --defs tests/data/enriques_k3_18.defs"

SCRIPT = f"""
surface show enriques_toy
surface show bielliptic_3 --records
chi --surface abelian_ppav --e 1,0;0 --f 4,2;1
chi --surface abelian_ppav --e 1,0;0 --f v_4_2l_1_ppav --records
pairing --surface k3_toy --v 1,0;1 --w 2,1;-1/2
pairing --surface enriques_toy --v 1,0;1/2 --w 0,1;0 --records
mukai --surface enriques_toy --e 1,0;0
mukai --surface k3_toy --e ideal_point --records
moduli-dim --surface k3_toy --e ideal_point
moduli-dim --surface product_elliptic --e v_4_2l_1 --records
cover validate bielliptic_cover_3
cover validate enriques_cover --records
push --cover bielliptic_cover_2 --e v_4_2l_1
push --cover bielliptic_cover_6 --e 1,1,1;0 --records
pull --cover bielliptic_cover_2 --f 0,0,0;1
pull --cover enriques_cover --f 1,1;0 --records
adjunction --cover bielliptic_cover_2 --f 1,0,0;0 --e v_4_2l_1
adjunction --cover bielliptic_cover_4 --f 1,1,0;0 --e 2,1,1;0 --records
free --cover bielliptic_cover_2 --vector v_4_2l_1
free --cover bielliptic_cover_6 --e 4,2,2;1 --records
obstruction --cover bielliptic_cover_2 --e poincare --m 1
obstruction --cover bielliptic_cover_2 --e poincare --m 2 --records
obstruction --cover bielliptic_cover_2 --e v_4_2l_1 --m 1 --records
descend-map {B2} --mat {I4}
descend-map {B2} --mat {I4} --records
descend-map {B2} --mat {SWAP4} --records
lift-map {B2} --mat {I4}
lift-map {B2} --mat {I4} --records
lift-map {B2} --mat {SWAP4} --records
equivariant --action-y swap --action-x swap --mat {I4}
equivariant --action-y swap --action-x swap --mat {I4} --records
equivariant --action-y trivial --action-x swap --mat {I4} --records
avg verify --trials 3 --seed 1 --max-order 4 --max-dim 4
avg verify --trials 3 --seed 2 --max-order 6 --max-dim 5 --records
reproduce ex3.5
reproduce ex3.6
reproduce ex5.2
reproduce ex5.3
reproduce mukai-no-descent
reproduce ex3.5 --records
reproduce ex3.6 --records
reproduce ex5.2 --records
reproduce ex5.3 --records
reproduce mukai-no-descent --records
surface show bench_enriques {BENCH}
chi --surface bench_enriques --e bench_enriques_v2 --f 1,{ZERO10};0 {BENCH} --records
mukai --surface bench_enriques --e bench_enriques_v2 {BENCH}
cover validate bench_enriques_cover {BENCH} --records
push --cover bench_enriques_cover --e bench_k3_O {BENCH}
pull --cover bench_enriques_cover --f bench_enriques_v2 {BENCH} --records
free --cover bench_enriques_cover --vector bench_k3_O {BENCH}
free --cover bench_enriques_cover --vector bench_k3_O {BENCH} --records
descend-map {E10} --mat {I12} {BENCH}
lift-map {E10} --mat {I12} {BENCH} --records
reproduce ex5.3 {BENCH}
cover validate golden_split_cover {EXTRA}
lift-map {SPLIT} --mat [1,0,0;0,-1,0;0,0,1] {EXTRA}
lift-map {SPLIT} --mat [1,0,0;0,1,0;0,0,1] {EXTRA} --records
cover validate golden_bad_cover {EXTRA}
cover validate golden_bad_cover {EXTRA} --strict
cover validate golden_bad_cover {EXTRA} --records --strict
adjunction --cover golden_bad_cover --f 0,0,1;0 --e 0,1,0;0 {EXTRA}
adjunction --cover golden_bad_cover --f 0,0,1;0 --e 0,1,0;0 {EXTRA} --strict
adjunction --cover golden_bad_cover --f 0,0,1;0 --e 0,1,0;0 {EXTRA} --records --strict
free --cover bielliptic_cover_2 --e 1,0,0;0
free --cover bielliptic_cover_2 --e 1,0,0;0 --strict
free --cover bielliptic_cover_2 --e 1,0,0;0 --records --strict
obstruction --cover bielliptic_cover_2 --e v_4_2l_1 --m 1 --strict
obstruction --cover bielliptic_cover_2 --e v_4_2l_1 --m 1 --records --strict
descend-map {B2} --mat {SWAP4}
descend-map {B2} --mat {SWAP4} --strict
descend-map {B2} --mat {SWAP4} --records --strict
lift-map {B2} --mat {SWAP4} --strict
lift-map {B2} --mat {SWAP4} --records --strict
equivariant --action-y trivial --action-x swap --mat {I4} --strict
equivariant --action-y trivial --action-x swap --mat {I4} --records --strict

surface
cover
avg
chi --surface k3_toy --e 1,0;0
free --cover bielliptic_cover_2
free --cover bielliptic_cover_2 --vector v_4_2l_1 --e 1,0,0;0
obstruction --cover bielliptic_cover_2 --e poincare --m two
chi --surface nowhere --e 1;0 --f 1;0
surface show nowhere
cover validate nowhere --records
free --cover bielliptic_cover_2 --vector nowhere
equivariant --action-y nowhere --action-x swap --mat {I4}
reproduce ex3.5 --defs tests/data/no_such.defs
chi --surface k3_toy --e whatever --f 1,0;0
chi --surface k3_toy --e 1,0,0;0 --f 1,0;0
chi --surface k3_toy --e 1,0;1/2 --f 1,0;0
pairing --surface k3_toy --v 1,0 --w 1,0;0
descend-map {B2} --mat [1,0;0]
lift-map {B2} --mat [1,0;0,1]
avg verify --trials 0
cover validate golden_bad_cover --defs tests/data/golden.defs
chi --surface abelian_ppav --e 1,0;0 --f 4,2;1 --records --records
lift-map {BAD} --mat {I4} {EXTRA}
avg verify --max-order 0
avg verify --max-dim 0
lift-map {K3_18} --mat {I12} --records
chi --surface k3_toy --e 1,0;0 --f 1,0;1e9999
chi --surface k3_toy --e 1,0;0 --f 1,0;0.5
avg verify --trials 1001
avg verify --max-order 1001
avg verify --max-dim 33
chi --surface -- --e 1,0;0 --f 1,0;0
chi --surface=-- --e 1,0;0 --f 1,0;0
free --cover=-- --vector 1,0;0
surface show k3_toy --defs=--
cover validate bielliptic_cover_2 --defs=--
avg verify --seed=--
obstruction --cover bielliptic_cover_2 --e poincare --m=--
pairing --surface k3_toy --v=-- --w 1,0;0
lift-map {B2} --mat=--
"""


def transcript() -> str:
    chunks = []
    for line in SCRIPT.strip("\n").split("\n"):
        code, out = run_cli(shlex.split(line))
        chunks.append(f"$ {line}\n{out}# exit {code}\n")
    return "".join(chunks)


def test_golden_transcript(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    golden = GOLDEN.read_text(encoding="utf-8")
    assert transcript() == golden
    # Warm: every --defs file is cached by now.  The one line whose file
    # fails validation misses again, because errors are not cached.
    before = _catalog_for.cache_info()
    assert transcript() == golden
    after = _catalog_for.cache_info()
    assert after.hits > before.hits and after.misses == before.misses + 1
    # Cold: every --defs file is parsed and validated again.
    _catalog_for.cache_clear()
    assert transcript() == golden


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    GOLDEN.write_text(transcript(), encoding="utf-8")
