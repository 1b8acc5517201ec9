"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 bench/record_expected.py

Writes bench/expected.json: the campaign's per-cell digests of the exact mean
at the default seed, and the verdict line of every axiom sweep.  Run it only
on a library version whose outputs are trusted; the committed file was made
from the library as it stood when the benchmark was defined.
"""
import json
import tempfile
from pathlib import Path

from workloads import (
    CAMPAIGN_SAMPLES, DEFAULT_SEED, EXPECTED_FILE, Axioms, Campaign, cell_label,
)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        campaign = Campaign()
        inputs = campaign.setup(DEFAULT_SEED, Path(tmp))
        digests = {label: campaign.digest(call()) for label, call in campaign.ops(inputs)}
        axioms = Axioms()
        lines = {label: call().strip() for label, call in axioms.ops(axioms.setup(0, Path(tmp)))}
    record = {
        "campaign": {"seed": DEFAULT_SEED, "profile_samples": CAMPAIGN_SAMPLES,
                     "digests": {cell_label(*c): digests[cell_label(*c)] for c in inputs["cells"]}},
        "axioms": dict(sorted(lines.items())),
    }
    EXPECTED_FILE.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {EXPECTED_FILE}")


if __name__ == "__main__":
    main()
