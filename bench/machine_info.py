"""Print the machine facts that go next to recorded benchmark numbers.

    python3 bench/machine_info.py
"""

import os
import platform
from pathlib import Path


def cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


if __name__ == "__main__":
    print(f"nproc {os.cpu_count()}")
    print(f"python {platform.python_version()} ({platform.python_implementation()})")
    print(f"cpu {cpu_model()}")
    print(f"platform {platform.platform()}")
