import ast
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


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_imports_another_modules_private_name():
    # a name another module needs belongs in that module's public surface
    package = Path(deltaq.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("deltaq")):
                found += [f"{path.name}: {alias.name} from "
                          f"{'.' * node.level}{node.module or ''}"
                          for alias in node.names if is_private(alias.name)]
    assert found == []
