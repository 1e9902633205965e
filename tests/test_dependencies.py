import json
import subprocess
import sys
from pathlib import Path

import deltaq

# runs in a fresh interpreter: prints the top-level modules that importing
# the package and its command-line front end added
PROBE = """
import json, sys
before = set(sys.modules)
import deltaq.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added - set(sys.stdlib_module_names))))
"""


def test_numpy_is_the_only_runtime_dependency():
    src = str(Path(deltaq.__file__).resolve().parent.parent)
    probe = f"import sys; sys.path.insert(0, {src!r})\n" + PROBE
    done = subprocess.run([sys.executable, "-I", "-c", probe],
                          capture_output=True, text=True, check=True)
    assert set(json.loads(done.stdout)) <= {"deltaq", "numpy"}
