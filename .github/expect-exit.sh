#!/usr/bin/env bash
# Usage: expect-exit.sh CODE COMMAND [ARG...]
#
# Runs COMMAND, prints what it wrote to stderr, and succeeds only when it
# exited with CODE and printed no Python traceback.
set -u
want=$1
shift
err=$(mktemp)
"$@" 2> "$err"
code=$?
cat "$err"
if [ "$code" -ne "$want" ]; then
  echo "expected exit $want, got $code: $*" >&2
  exit 1
fi
if grep -q Traceback "$err"; then exit 1; fi
