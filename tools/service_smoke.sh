#!/usr/bin/env bash
# Sweep-service smoke shared by the CI benchmark job.
#
# Boots the `repro-mapreduce serve` daemon against a throwaway cache,
# submits a study spec through the HTTP client (`repro-mapreduce submit`),
# polls it to completion and checks the service's guarantees end to end:
#
#   1. the CSV downloaded from the daemon is byte-identical to the same
#      spec executed offline via `repro-mapreduce sweep --spec`;
#   2. resubmitting the identical spec performs ZERO new engine runs
#      (every slot served from the results the daemon already delivered),
#      is `completed` in the submit reply itself, and yields the same
#      bytes again;
#   3. `repro-mapreduce cache stats` sees exactly the entries the daemon
#      persisted, all at the current format version.
#
# Usage: tools/service_smoke.sh <spec.toml> <artifact-name>
#   <spec.toml>      study spec file (examples/studies/*.toml)
#   <artifact-name>  basename for the CSV exports, cache dir and logs;
#                    the served CSV lands at <artifact-name>.csv for upload.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 <spec.toml> <artifact-name>" >&2
    exit 2
fi

spec="$1"
name="$2"
cache=".${name}-cache"
log="${name}-serve.log"

# --port 0 binds an ephemeral port; scrape the actual URL from the
# daemon's startup line so parallel CI jobs can't collide.
python -m repro serve --cache-dir "$cache" --port 0 >"$log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT

url=""
for _ in $(seq 1 100); do
    url=$(sed -n 's/^sweep service listening on \(http[^ ]*\).*/\1/p' "$log")
    [ -n "$url" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$log" >&2; exit 1; }
    sleep 0.1
done
if [ -z "$url" ]; then
    echo "service never became ready:" >&2
    cat "$log" >&2
    exit 1
fi
echo "service up at $url"

python -m repro submit --spec "$spec" --url "$url" --csv "${name}.csv" \
    | tee "${name}-submit1.log"

# Offline reference: the same spec through the non-daemon sweep path,
# no cache involved -- pure engine output.
python -m repro sweep --spec "$spec" --csv "${name}-offline.csv" >/dev/null
cmp "${name}.csv" "${name}-offline.csv"
echo "service CSV byte-identical to offline sweep"

# Resubmit the identical spec: the daemon must serve every slot from the
# shared cache (the submit report says "..., 0 executed, ...").
python -m repro submit --spec "$spec" --url "$url" --csv "${name}-resubmit.csv" \
    | tee "${name}-submit2.log"
grep -q ", 0 executed," "${name}-submit2.log" || {
    echo "resubmission performed engine runs -- dedup/cache broken" >&2
    exit 1
}
# The submit reply's status ends the first line: the daemon fills a
# resubmitted study from the results it delivered, before replying.
head -n 1 "${name}-submit2.log" | grep -q ": completed$" || {
    echo "resubmission was not completed in its submit reply" >&2
    exit 1
}
cmp "${name}.csv" "${name}-resubmit.csv"
echo "resubmission completed at submit, served entirely from cache, bytes identical"

python -m repro cache stats --cache-dir "$cache" | tee "${name}-cache-stats.log"
grep -q "stale entries:  0" "${name}-cache-stats.log"

kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
trap - EXIT
echo "service smoke OK: ${name}.csv served == offline, warm resubmit ran nothing"
