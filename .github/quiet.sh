# quiet CMD...: run CMD and fail, printing its stderr, if it exits nonzero
# or writes anything on stderr (a warning, say, which leaves the exit code 0).
quiet() {
  local err="${RUNNER_TEMP:-/tmp}/quiet.err" code=0
  "$@" 2> "$err" || code=$?
  if [ "$code" -ne 0 ] || [ -s "$err" ]; then
    cat "$err" >&2
    return 1
  fi
}
