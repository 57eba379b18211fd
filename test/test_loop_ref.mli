val suite : unit Alcotest.test_case list
