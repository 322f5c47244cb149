let () =
  Alcotest.run "captive_repro"
    [
      Test_bits.suite;
      Test_softfloat.suite;
      Test_adl.suite;
      Test_ssa.suite;
      Test_absint.suite;
      Test_verify.suite;
      Test_hvm.suite;
      Test_hostir.suite;
      Test_reloc.suite;
      Test_arm.suite;
      Test_engine.suite;
      Test_tiered.suite;
      Test_template.suite;
      Test_promote.suite;
      Test_symexec.suite;
      Test_hostir_absint.suite;
      Test_workloads.suite;
      Test_sanitize.suite;
      Test_concurrent.suite;
      Test_parity.suite;
    ]
