"""Golden wall for ISOP + factoring: ``factored_form_cost`` output, pinned.

For every 3-input function and for a seeded sample of 4- to 10-input
tables, the digest of ``(cost, str(factor), complemented)`` must equal the
one in ``golden/factoring.json``.  The resynthesis passes build exactly
that factored form into the AIG, so any change to the cover, the divisor
choice or the polarity choice fails here.

After a deliberate change of the factoring, rewrite the golden file with::

    PYTHONPATH=src python tests/aig/test_factor_golden.py
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.aig.sop import factored_form_cost, table_mask

GOLDEN = Path(__file__).resolve().parent / "golden" / "factoring.json"

#: Seeded tables per input count above 3.
SAMPLES = 40


def tables(num_vars):
    """Every 3-input table; a seeded sample of wider ones.

    The sample cycles through uniform words and ANDs/ORs of them, so its
    on-set density spans roughly 1/8 to 3/4 and covers both small and
    large ISOPs.
    """
    if num_vars == 3:
        return list(range(256))
    rng = random.Random(num_vars)
    width = 1 << num_vars
    out = []
    for index in range(SAMPLES):
        a, b, c = (rng.getrandbits(width) for _ in range(3))
        out.append((a, a & b, a | b, a & b & c)[index % 4])
    return out


def digest(num_vars):
    """Digest of the factored forms of :func:`tables` ``(num_vars)``."""
    hasher = hashlib.sha256()
    for table in tables(num_vars):
        cost, factor, complemented = factored_form_cost(table & table_mask(num_vars), num_vars)
        hasher.update(f"{table:x}:{cost}:{factor}:{complemented};".encode())
    return hasher.hexdigest()


@pytest.mark.parametrize("num_vars", range(3, 11))
def test_factored_forms_match_golden(num_vars):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digest(num_vars) == golden[str(num_vars)]


if __name__ == "__main__":
    document = {str(n): digest(n) for n in range(3, 11)}
    GOLDEN.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
