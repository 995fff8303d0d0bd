# Runs one command and checks how it ends, for the tool flag tests that
# ctest's own checks cannot express: an exit status other than 0 and 1
# together with its output, an abort, or a file whose name is known only
# after an earlier test ran.
#
#   cmake -DEXIT=<status> -DOUTPUT=<regex> [-DFRESH=<dir>]
#         -P expect.cmake -- <command> [args...]
#
# EXIT is the exit code, or "Subprocess aborted" for a process that
# panics.  OUTPUT must match stdout and stderr together.  FRESH names a
# directory removed before the run.  An argument holding a '*' stands
# for the one file it globs.

math(EXPR last "${CMAKE_ARGC} - 1")
set(cmd)
set(in_cmd FALSE)
foreach(i RANGE ${last})
    set(arg "${CMAKE_ARGV${i}}")
    if(in_cmd)
        if(arg MATCHES "\\*")
            file(GLOB matches "${arg}")
            list(LENGTH matches n)
            if(NOT n EQUAL 1)
                message(FATAL_ERROR "${arg} globs ${n} files, not one")
            endif()
            set(arg "${matches}")
        endif()
        list(APPEND cmd "${arg}")
    elseif(arg STREQUAL "--")
        set(in_cmd TRUE)
    endif()
endforeach()

if(FRESH)
    file(REMOVE_RECURSE "${FRESH}")
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
message("${out}")
if(NOT "${status}" STREQUAL "${EXIT}")
    message(FATAL_ERROR "exit status '${status}', expected '${EXIT}'")
endif()
if(NOT "${out}" MATCHES "${OUTPUT}")
    message(FATAL_ERROR "the output does not match '${OUTPUT}'")
endif()
