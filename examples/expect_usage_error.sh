#!/bin/sh
# Runs the given command line and succeeds only when it exits with status 2
# after printing bpctl's usage text.  Used by the bpctl bad-input ctests.
out="$("$@" 2>&1)"
rc=$?
printf '%s\n' "$out"
[ "$rc" -eq 2 ] && printf '%s\n' "$out" | grep -q '^usage: bpctl'
