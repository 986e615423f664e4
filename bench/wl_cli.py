"""cli_session: one run_cli call per operation.

Per-command overhead dominates here and lattice work is tiny: run_cli
builds its argparse parser, looks up the catalog and, on 7 of the 12
lines of each subcommand, parses and validates the benchmark's rank-10
definitions given with --defs.  A round is a seeded session covering all
16 subcommands in both output forms, plus a few malformed lines that
must exit with code 2.
Every expected value comes from the reference arithmetic; after the
timed loop the whole session is replayed twice through run_script, and
the two transcripts must be byte-identical.
"""

from __future__ import annotations

import re
import shlex
from fractions import Fraction

import refarith as R
import wl_transport
from harness import ENRIQUES_K3_DEFS, Op, expect

DEFS = (ENRIQUES_K3_DEFS,)
LINES_PER_COMMAND = 12
DEFS_LINES_PER_COMMAND = 7
MALFORMED_LINES = 12

# Small surfaces and covers of the built-in catalog, and the benchmark's
# rank-10 ones, which need --defs.
BUILTIN_SURFACES = ("abelian_ppav", "product_elliptic", "k3_toy", "enriques_toy",
                    "bielliptic_2", "bielliptic_3", "bielliptic_4", "bielliptic_6")
RANK10_SURFACES = ("bench_enriques", "bench_k3_enriques")
BUILTIN_COVERS = ("bielliptic_cover_2", "bielliptic_cover_3", "bielliptic_cover_4",
                  "bielliptic_cover_6", "enriques_cover")
RANK10_COVERS = ("bench_enriques_cover",)
EXAMPLE_IDS = ("ex3.5", "ex3.6", "ex5.2", "ex5.3", "mukai-no-descent")
AXIOMS = ("degree_equals_canonical_order", "intersection_scaling",
          "pushforward_adjointness", "degree_identity", "chi_multiplicativity")

# Catalog vectors, by hand: (surface, (r, c, ch2)).
VECTORS = {
    "point": ("product_elliptic", (0, (0, 0), 1)),
    "O": ("product_elliptic", (1, (0, 0), 0)),
    "poincare": ("product_elliptic", (1, (0, 0), 0)),
    "v_4_2l_1": ("product_elliptic", (4, (2, 2), 1)),
    "bench_k3_O": ("bench_k3_enriques", (1, (0,) * 10, 0)),
}
ACTIONS = {"trivial": R.identity(4),
           "swap": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]}

_INT = re.compile(r"\d+")


# ------------------------------------------------------------ text helpers

def fmt_class(e):
    r, c, d = e
    return f"{r},{','.join(str(x) for x in c)};{d}"


def fmt_matrix(m):
    return "[" + ";".join(",".join(str(x) for x in row) for row in m) + "]"


def parse_triple(text):
    left, _, right = text.partition(";")
    head = [int(x) for x in left.split(",")]
    return head[0], tuple(head[1:]), Fraction(right)


def parse_matrix(text):
    return R.normalize([[Fraction(x) for x in row.split(",")] for row in text.strip("[]").split(";")])


def fields(out, records):
    """Output lines as key -> value; plain lines split at the first space."""
    pairs = [line.partition("\t" if records else " ") for line in out.splitlines()]
    return {k: v for k, _, v in pairs}


def single(out, records, key):
    """The value of a one-value command in either output form."""
    line = out.rstrip("\n")
    if records:
        k, _, line = line.partition("\t")
        expect(k == key, f"expected a {key!r} record, got {out!r}")
    return line


def printed_bits(out):
    return max((int(x).bit_length() for x in _INT.findall(out)), default=1)


# ------------------------------------------------------------ inputs

def random_class(rng, s: R.Surface):
    """(r, c, ch2) with 2 ch2 + c^2 even, which holds on the even lattices used here."""
    return (rng.randint(0, 3), tuple(rng.randint(-2, 2) for _ in range(s.dim)), rng.randint(-2, 2))


def random_mukai(rng, s: R.Surface):
    return (rng.randint(0, 3), tuple(rng.randint(-2, 2) for _ in range(s.dim)),
            Fraction(rng.randint(-4, 4), 2))


# Each command builder returns (argv without common flags, check(code, out, records)).

def cmd_surface(rng, names):
    s = R.SURFACES[rng.choice(names)]

    def check(code, out, records):
        f = fields(out, records)
        expect(code == 0 and f.get("surface") == s.name and f.get("rank") == str(s.dim)
               and f.get("intersection") == fmt_matrix(s.gram) and f.get("chi_o") == str(s.chi_o)
               and f.get("canonical_order") == str(s.order), f"surface show {s.name}: {out!r}")
    return ["surface", "show", s.name], check


def cmd_chi(rng, names):
    s = R.SURFACES[rng.choice(names)]
    e, f = random_class(rng, s), random_class(rng, s)
    want = R.chi(s, e, f)

    def check(code, out, records):
        expect(code == 0 and int(single(out, records, "chi")) == want, f"chi: {out!r}, expected {want}")
    return ["chi", f"--surface={s.name}", f"--e={fmt_class(e)}", f"--f={fmt_class(f)}"], check


def cmd_pairing(rng, names):
    s = R.SURFACES[rng.choice(names)]
    v, w = random_mukai(rng, s), random_mukai(rng, s)
    want = R.mukai_pairing(s, v, w)

    def check(code, out, records):
        expect(code == 0 and Fraction(single(out, records, "pairing")) == want,
               f"pairing: {out!r}, expected {want}")
    return ["pairing", f"--surface={s.name}", f"--v={fmt_class(v)}", f"--w={fmt_class(w)}"], check


def cmd_mukai(rng, names):
    s = R.SURFACES[rng.choice(names)]
    e = random_class(rng, s)
    want = R.mukai_vector(s, e)

    def check(code, out, records):
        expect(code == 0 and parse_triple(single(out, records, "mukai")) == want,
               f"mukai: {out!r}, expected {want}")
    return ["mukai", f"--surface={s.name}", f"--e={fmt_class(e)}"], check


def cmd_moduli_dim(rng, names):
    s = R.SURFACES[rng.choice(names)]
    e = random_class(rng, s)
    want = 2 - R.chi(s, e, e)

    def check(code, out, records):
        expect(code == 0 and int(single(out, records, "moduli_dim")) == want,
               f"moduli-dim: {out!r}, expected {want}")
    return ["moduli-dim", f"--surface={s.name}", f"--e={fmt_class(e)}"], check


def cmd_cover_validate(rng, covers):
    t = R.COVERS[rng.choice(covers)]

    def check(code, out, records):
        want = ([f"check.{a}\tpass" for a in AXIOMS] if records else [f"PASS {a}" for a in AXIOMS])
        expect(code == 0 and out.splitlines() == want, f"cover validate {t.name}: {out!r}")
    return ["cover", "validate", t.name], check


def cmd_push(rng, covers):
    t = R.COVERS[rng.choice(covers)]
    e = random_class(rng, t.cover)
    want = R.push(t, e)

    def check(code, out, records):
        expect(code == 0 and parse_triple(single(out, records, "push")) == want,
               f"push: {out!r}, expected {want}")
    return ["push", f"--cover={t.name}", f"--e={fmt_class(e)}"], check


def cmd_pull(rng, covers):
    t = R.COVERS[rng.choice(covers)]
    f = random_class(rng, t.base)
    want = R.pull(t, f)

    def check(code, out, records):
        expect(code == 0 and parse_triple(single(out, records, "pull")) == want,
               f"pull: {out!r}, expected {want}")
    return ["pull", f"--cover={t.name}", f"--f={fmt_class(f)}"], check


def cmd_adjunction(rng, covers):
    t = R.COVERS[rng.choice(covers)]
    f, e = random_class(rng, t.base), random_class(rng, t.cover)
    lhs, rhs = R.chi(t.cover, R.pull(t, f), e), R.chi(t.base, f, R.push(t, e))

    def check(code, out, records):
        got = fields(out, records)
        expect(code == 0 and got == {"lhs": str(lhs), "rhs": str(rhs), "equal": "true"},
               f"adjunction: {out!r}, expected {lhs} = {rhs}")
    return ["adjunction", f"--cover={t.name}", f"--f={fmt_class(f)}", f"--e={fmt_class(e)}"], check


def certificate(t: R.Cover, e):
    pushed = R.push(t, e)
    return [(label, R.chi(t.base, g, pushed)) for label, g in R.generators(t.base)]


def cmd_free(rng, covers):
    t = R.COVERS[rng.choice(covers)]
    named = [v for v, (s, _) in VECTORS.items() if s == t.cover.name]
    if named and rng.random() < 0.5:
        name = rng.choice(named)
        e, arg = VECTORS[name][1], f"--vector={name}"
    else:
        e = random_class(rng, t.cover)
        arg = f"--e={fmt_class(e)}"
    values = certificate(t, e)
    g = R.gcd_all(v for _, v in values)

    def check(code, out, records):
        prefix = "value." if records else ""
        want = {f"{prefix}{label}": str(v) for label, v in values}
        want.update(gcd=str(g), free=str(g == 1).lower())
        expect(code == 0 and fields(out, records) == want, f"free: {out!r}, expected {want}")
    return ["free", f"--cover={t.name}", arg], check


def cmd_obstruction(rng, covers):
    t = R.COVERS[rng.choice(covers)]
    m = rng.choice([k for k in range(1, t.degree + 1) if t.degree % k == 0])
    e = random_class(rng, t.cover)
    r, c, d = e
    pre = R.mat_vec(R.inverse(R.pull_ext(t)), (m * r, *(m * x for x in c), m * d))
    pr, pc, ps = pre[0], pre[1:-1], Fraction(pre[-1])
    applicable = (Fraction(pr).denominator == 1 and all(Fraction(x).denominator == 1 for x in pc)
                  and (2 * ps + R.pair(t.base.gram, pc, pc)) % 2 == 0)
    divisor = t.degree // m
    divisible = all(v % divisor == 0 for _, v in certificate(t, e))

    def check(code, out, records):
        got = fields(out, records)
        if applicable:
            want = {"applicable": "true", "divisor": str(divisor), "all_divisible": str(divisible).lower()}
            expect(code == 0 and got == want, f"obstruction: {out!r}, expected {want}")
        else:
            expect(code == 0 and got.get("applicable") == "false" and got.get("reason"),
                   f"obstruction: {out!r}, expected not applicable")
    return ["obstruction", f"--cover={t.name}", f"--e={fmt_class(e)}", f"--m={m}"], check


def cmd_descend_map(rng, covers):
    t = R.COVERS[rng.choice(covers)]
    phi = wl_transport.random_isometry(rng, t.cover, rng.randint(1, 3))
    pull, push = R.pull_ext(t), R.push_ext(t)
    cand = R.normalize(R.scale(Fraction(1, t.degree), R.matmul(R.matmul(push, phi), pull)))
    descends = (R.is_integral(cand) and R.matmul(cand, push) == R.matmul(push, phi)
                and R.matmul(pull, cand) == R.matmul(phi, pull))

    def check(code, out, records):
        got = fields(out, records)
        expect(code == 0 and got.get("descends") == str(descends).lower(),
               f"descend-map: {out!r}, expected descends {descends}")
        if descends:
            m = parse_matrix(got["map"])
            expect(m == cand and R.is_isometry(t.base, t.base, m), f"descend-map printed {got['map']}")
    return ["descend-map", f"--cover-y={t.name}", f"--cover-x={t.name}", f"--mat={fmt_matrix(phi)}"], check


def cmd_lift_map(rng, covers):
    t = R.COVERS[rng.choice(covers)]
    phi = wl_transport.random_isometry(rng, t.base, rng.randint(1, 3))
    lift = wl_transport.lift_candidate(t, phi)

    def check(code, out, records):
        got = fields(out, records)
        expect(code == 0 and got.get("lifts") == str(int(lift is not None)),
               f"lift-map: {out!r}, expected {int(lift is not None)} lift(s)")
        if lift is not None:
            expect(parse_matrix(got["lift.1"]) == lift, f"lift-map printed {got['lift.1']}")
    return ["lift-map", f"--cover-y={t.name}", f"--cover-x={t.name}", f"--mat={fmt_matrix(phi)}"], check


def cmd_equivariant(rng, _):
    y, x = rng.choice(tuple(ACTIONS)), rng.choice(tuple(ACTIONS))
    g_y, g_x = ACTIONS[y], ACTIONS[x]
    phi = wl_transport.random_isometry(rng, R.SURFACES["product_elliptic"], rng.randint(1, 3))
    powers_y, powers_x = [R.identity(4), g_y], [R.identity(4), g_x]
    # order 2: the only unit exponent is 1, and mu must be [0, 1]
    equivariant = all(R.matmul(powers_x[j], phi) == R.matmul(phi, powers_y[j]) for j in range(2))

    def check(code, out, records):
        want = {"equivariant": "true", "mu": "0,1"} if equivariant else {"equivariant": "false"}
        expect(code == 0 and fields(out, records) == want, f"equivariant: {out!r}, expected {want}")
    return ["equivariant", f"--action-y={y}", f"--action-x={x}", f"--mat={fmt_matrix(phi)}"], check


def cmd_avg_verify(rng, _):
    trials = 2
    argv = ["avg", "verify", f"--trials={trials}", f"--seed={rng.randrange(10 ** 6)}",
            "--max-order=4", "--max-dim=4"]

    def check(code, out, records):
        want = {"trials": str(trials), "failures": "0", "all_hold": "true"}
        expect(code == 0 and fields(out, records) == want, f"avg verify: {out!r}")
    return argv, check


def cmd_reproduce(rng, _):
    example = rng.choice(EXAMPLE_IDS)

    def check(code, out, records):
        last = out.splitlines()[-1] if out else ""
        expect(code == 0 and last == ("result\tpass" if records else "result PASS"),
               f"reproduce {example}: {out!r}")
    return ["reproduce", example], check


def cmd_malformed(rng, _):
    bad = rng.choice((
        ["chi", "--surface=no_such_surface", "--e=1,0;0", "--f=1,0;0"],
        ["mukai", "--surface=k3_toy", f"--e=1,{rng.randint(0, 3)},0;0"],
        ["push", "--cover=no_such_cover", "--e=1,0,0;0"],
        ["pairing", "--surface=product_elliptic", "--v=1,0,0", "--w=1,0,0;0"],
        ["moduli-dim", "--surface=k3_toy", f"--e=1,{2 * rng.randint(0, 3) + 1};1/2"],
        ["reproduce", "ex9.9"],
        ["free", "--cover=bench_enriques_cover", "--vector=bench_k3_O"],
    ))

    def check(code, out, records):
        expect(code == 2 and out.startswith(("error:", "usage:")), f"malformed {bad}: exit {code}, {out!r}")
    return bad, check


COMMANDS = (cmd_surface, cmd_chi, cmd_pairing, cmd_mukai, cmd_moduli_dim, cmd_cover_validate,
            cmd_push, cmd_pull, cmd_adjunction, cmd_free, cmd_obstruction, cmd_descend_map,
            cmd_lift_map, cmd_equivariant, cmd_avg_verify, cmd_reproduce)
TAKES_COVERS = {cmd_cover_validate, cmd_push, cmd_pull, cmd_adjunction, cmd_free,
                cmd_obstruction, cmd_descend_map, cmd_lift_map}


def session(rng):
    """(kind, argv, check, records) per line.  DEFS_LINES_PER_COMMAND of
    each subcommand's lines load the rank-10 definitions and use them where
    the command takes a surface or cover; the output form alternates every
    two lines.  Lines with --defs take about twice as long, and the median
    latency falls among the light commands with --defs.  The seed orders
    the lines but does not choose which commands carry --defs: when it
    did, the commands around the median changed from seed to seed, and
    the median spread by 0.11 to 0.18."""
    plan = [(cmd, j < DEFS_LINES_PER_COMMAND) for cmd in COMMANDS for j in range(LINES_PER_COMMAND)]
    plan += [(cmd_malformed, False)] * MALFORMED_LINES
    rng.shuffle(plan)
    lines = []
    for i, (cmd, rank10) in enumerate(plan):
        records = (i // 2) % 2 == 1
        names = ((RANK10_COVERS if rank10 else BUILTIN_COVERS) if cmd in TAKES_COVERS
                 else (RANK10_SURFACES if rank10 else BUILTIN_SURFACES))
        argv, check = cmd(rng, names)
        if rank10:
            argv += ["--defs", str(ENRIQUES_K3_DEFS)]
        if records:
            argv.append("--records")
        lines.append((cmd.__name__.removeprefix("cmd_"), argv, check, records))
    return lines


def build(fm, catalog, rng):
    cli = fm.cli
    lines = session(rng)
    ops = [Op(kind, _call(cli, argv), _check(check, records)) for kind, argv, check, records in lines]
    script = "".join(shlex.join(argv) + "\n" for _, argv, _, _ in lines)

    def replay():
        first, second = cli.run_script(script), cli.run_script(script)
        expect(first == second, "replaying the session through run_script is not byte-identical")
        expect(first[0] == 2, f"run_script exit code {first[0]}, expected 2 from the malformed lines")
    return ops, replay


def _call(cli, argv):
    return lambda: cli.run_cli(argv)


def _check(check, records):
    def run(result):
        code, out = result
        check(code, out, records)
        return printed_bits(out) if code == 0 else 1
    return run
