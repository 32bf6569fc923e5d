# Fails if any object file in OBJECTS holds a fused multiply-add
# instruction. A fused multiply-add rounds `acc + x * y` once instead of
# twice, which breaks the MLP kernel's bit-identity contract
# (src/ml/README.md). Disassembling covers every compiled variant,
# including AVX2/AVX-512 code the host running the check cannot execute.
#
#   cmake -DOBJDUMP=<objdump> -DOBJECTS=<a.o;b.o> -P check_no_fma.cmake
if(NOT OBJDUMP OR NOT OBJECTS)
  message(FATAL_ERROR "check_no_fma: pass -DOBJDUMP=... and -DOBJECTS=...")
endif()
foreach(object IN LISTS OBJECTS)
  execute_process(COMMAND "${OBJDUMP}" -d "${object}"
                  OUTPUT_VARIABLE disassembly
                  RESULT_VARIABLE result)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "check_no_fma: objdump failed on ${object}")
  endif()
  string(REGEX MATCHALL "[^\n]*v(fmadd|fmsub|fnmadd|fnmsub)[^\n]*" hits
         "${disassembly}")
  list(LENGTH hits count)
  if(count GREATER 0)
    list(GET hits 0 first)
    message(FATAL_ERROR "check_no_fma: ${object} holds ${count} fused "
                        "multiply-add instruction(s), e.g.\n${first}")
  endif()
  message(STATUS "check_no_fma: ${object}: no fused multiply-add")
endforeach()
