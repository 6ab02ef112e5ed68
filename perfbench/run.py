#!/usr/bin/env python3
"""Run one perfbench workload and print its result.

    python3 perfbench/run.py --workload ted-aids3200 --seed 7 --seconds 10 --trace 0

Run from the root of a source checkout. The first run, and any run after a
source file changed, builds the program and the benchmark from source with
sbt (offline); later runs reuse the recorded classpath. `--trace 0` builds
and runs only the timed project, which uses the method entry points alone;
`--trace 1` builds and runs the traced project, which replays the methods
through their layers' inner APIs. Then one benchmark JVM runs the workload.
Its stdout ends with the result as one JSON line and its exit code is
passed on. Build output and run records stay under .bench_build/ in the
checkout.
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
HEAP = "2g"

# The sbt project and main class for each --trace value, and the files whose
# change makes that project's recorded classpath stale.
COMMON_SOURCES = ["build.sbt", "project", "src/main", "jobs",
                  "perfbench/build.sbt", "perfbench/project", "perfbench/timed/src/main"]
PROJECTS = {
    "0": ("timed", "repro.perfbench.Bench", COMMON_SOURCES),
    "1": ("traced", "repro.perfbench.TracedBench", COMMON_SOURCES + ["perfbench/traced/src/main"]),
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files(roots):
    for rel in roots:
        path = os.path.join(ROOT, rel)
        if os.path.isfile(path):
            yield rel
        for d, dirs, files in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x != "target")
            for f in sorted(files):
                if f.endswith((".scala", ".sbt", ".properties", ".java")):
                    yield os.path.relpath(os.path.join(d, f), ROOT)


def fingerprint(roots):
    h = hashlib.sha256(ROOT.encode() + b"\0")
    for rel in source_files(roots):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read() + b"\0")
    return h.hexdigest()


def run_process(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the whole group on timeout."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail(f"{cmd[0]} did not finish within {timeout} s", 124)
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    return p.returncode, out


def classpath(project, sha):
    """The project's runtime classpath, building first if sources changed."""
    out_dir = os.path.join(BUILD, project)
    cp_file = os.path.join(out_dir, "classpath.txt")
    sha_file = os.path.join(out_dir, "source.sha256")
    if os.path.exists(cp_file) and os.path.exists(sha_file):
        with open(sha_file) as f:
            if f.read().strip() == sha:
                with open(cp_file) as g:
                    return g.read().strip()
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Xmx2g")
    os.makedirs(out_dir, exist_ok=True)
    log = os.path.join(out_dir, "build.log")
    print(f"perfbench: building with sbt, log in {log}", file=sys.stderr, flush=True)
    code, out = run_process(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", f"export {project}/Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        stdin=subprocess.DEVNULL)
    text = out.decode(errors="replace")
    with open(log, "w") as f:
        f.write(text)
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("[")]
    if code != 0 or not lines or f"perfbench/{project}" not in lines[-1]:
        sys.stderr.write(text[-4000:])
        fail(f"sbt build failed (exit {code})", 3)
    cp = lines[-1].strip()
    with open(cp_file, "w") as f:
        f.write(cp + "\n")
    with open(sha_file, "w") as f:
        f.write(sha + "\n")
    return cp


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt")) and
            os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro"))):
        fail(f"no program sources under {ROOT}; run from the root of a full checkout")
    args = sys.argv[1:]
    trace = next((v for k, v in zip(args, args[1:]) if k == "--trace"), "0")
    project, main_class, roots = PROJECTS.get(trace, PROJECTS["0"])
    sha = fingerprint(roots)
    cp = classpath(project, sha)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ.get("JAVA_HOME", ""), "bin", "java")
    if not os.path.isfile(java):
        java = "java"
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+AlwaysPreTouch",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dperfbench.dir={BUILD}",
           f"-Dperfbench.gitSha={git_sha()}",
           f"-Dperfbench.sourceSha={sha}",
           "-cp", cp, main_class] + args
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(BUILD, "spark-local"))
    code, _ = run_process(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env, stdin=subprocess.DEVNULL)
    sys.exit(code)


if __name__ == "__main__":
    main()
