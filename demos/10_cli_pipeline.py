# The batch driver end to end: write a config, run it, re-verify the summary.
#
# The summary is the run's only output.  It echoes the config, and the verify
# step re-runs the experiment from that config and compares every stored key
# with the fresh result; re-running a config reproduces the summary byte for
# byte.

import json
import subprocess
import sys
import tempfile
from pathlib import Path

config = {
    "format": 1,
    "group": {"kind": "bs", "m": 2, "n": 3},
    "experiment": "qm-certify",
    "parameters": {"g": "t", "radius": 4},
    "seed": 0,
}

with tempfile.TemporaryDirectory() as tmp:
    cfg_path = Path(tmp) / "certify.json"
    cfg_path.write_text(json.dumps(config, indent=2))

    out1, out2 = Path(tmp) / "run1", Path(tmp) / "run2"
    for out in (out1, out2):
        subprocess.run(
            [sys.executable, "-m", "hypactions", "run", str(cfg_path), "-o", str(out)],
            check=True,
            capture_output=True,
        )
    identical = (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    print(f"two runs byte-identical: {identical}")

    summary = json.loads((out1 / "summary.json").read_text())
    cert = summary["result"]["certificate"]
    print(
        f"certificate: witness {cert['witness']}, value {cert['homogenized_value']}, "
        f"M = {cert['subordination_M']}, defect {cert['defect']['value']}, "
        f"{len(cert['rows'])} subordination rows"
    )

    verify = subprocess.run(
        [sys.executable, "-m", "hypactions", "verify", str(out1 / "summary.json")],
        capture_output=True,
        text=True,
    )
    print(verify.stdout.strip())
    print(f"verify exit code: {verify.returncode}")
