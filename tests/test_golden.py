"""The final artifacts of every manifest configuration match tests/golden.json
(see tests/golden.py; ``python tests/golden.py --write`` regenerates it)."""

import json

import golden


def test_artifacts_match_the_manifest(tmp_path):
    manifest = json.loads(golden.MANIFEST.read_text())
    moved = golden.mismatches(golden.build(tmp_path), manifest)
    assert not moved, f"artifacts moved from tests/golden.json: {moved}"
