"""Golden output bytes: pinned sha256 digests of BLAS-free CLI outputs.

Each argv below writes its result file with ``--out``, and the file's sha256
must equal the pinned digest.  These outputs run on the counter-based streams,
the inverse-CDF transforms, ``math.fsum`` reductions and scalar bound
arithmetic only, with no BLAS.  They are still not fixed across machines:
the transforms call numpy's vectorized ``np.power`` (pareto), ``np.log1p``
(cexp) and ``np.log`` (the gaussian tails), whose loops numpy picks by CPU
feature level and which differ from libm's ``pow``, ``log1p`` and ``log`` in
the last place on some inputs (on an AVX-512 host, 4.6%, 7.3% and 0.3% of
uniform inputs).  So the digests are pinned per numpy build and CPU feature
level.  A digest changes only together with a CHANGES.md line that says
which output moved and why.

The SK, Wigner and ``lambda_audit`` outputs are left out on purpose: their
last digits come from GEMM, LU or ``dsytrd`` rounding, which depends on the
BLAS/LAPACK build, so a digest pinned on one build could fail on another
with correct code.  The determinism tests check their reruns within one
build instead.
"""

import hashlib

import pytest

from lindeberg_lab.cli import main

GOLDEN = [
    (["clt", "--size", "64", "--replicates", "500", "--seed", "5"],
     "abdb31e4d45e7addc98fe9c63a1ac89fe1e9a330754b1be18646ff25c7d8c936"),
    (["clt", "--g", "clipped_square", "--dist-x", "cexp", "--size", "32",
      "--replicates", "200", "--format", "json"],
     "b2c181834d96a09779cff05456f0be898ce93f29a6e23bf22bc5d999aabb9ee5"),
    (["erdos_kac", "--size", "300", "--dist-x", "pareto:4",
      "--replicates", "400", "--threads", "2"],
     "67e0601f326e063c7cabba30b3ca89bfb248a774b99d8c3479d0d72e5becfeda"),
    (["bound_table", "--sizes", "8,12,16"],
     "e2c49721c8560d023ebc200b14a94aba762d7b7c2f4e22854a8ac8408a267c74"),
    (["bound_table", "--sizes", "8,24", "--format", "json"],
     "643dfb56d20b1c4286e93cc0801a8f39f26b9dc651581bba26677c1342183eb9"),
]


@pytest.mark.parametrize("argv, want", GOLDEN,
                         ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_output_bytes_are_pinned(argv, want, tmp_path, capsys):
    out = tmp_path / "result"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want
