1c35f10b0354b665  Db1/ClassClustered/NL (30,90)
93b9c15a2c4f960a  Db1/ClassClustered/NOJOIN (90,60)
73be239d9e3ad1bd  Db1/ClassClustered/PHJ (90,90)
ecea2a29615806d8  Db1/ClassClustered/CHJ (30,30)
2d8feee2c4a1e2d4  Db1/Randomized/NL (60,90)
3cf512dd315a5254  Db1/Randomized/NOJOIN (30,60)
7c81052bbbc10eb5  Db1/Randomized/PHJ (30,60)
79da868f938ab4ab  Db1/Randomized/CHJ (10,90)
5b08feaaeaad24f5  Db1/Composition/NL (10,30)
bea0531d7f56d3e3  Db1/Composition/NOJOIN (30,60)
ed8caf352989522a  Db1/Composition/PHJ (10,30)
fcf89c389c24f48f  Db1/Composition/CHJ (30,60)
800ac79ad4b76faf  Db2/ClassClustered/NL (10,90)
3d30b9e8f758acd7  Db2/ClassClustered/NOJOIN (90,90)
7b77eaef824019aa  Db2/ClassClustered/PHJ (60,30)
b11e7cb0e85d76d0  Db2/ClassClustered/CHJ (90,90)
f3cc2d7e0c8fe39c  Db2/Randomized/NL (60,60)
023322dbebb15d17  Db2/Randomized/NOJOIN (60,90)
d4f455c63708e220  Db2/Randomized/PHJ (30,10)
51c4591fe15c17a7  Db2/Randomized/CHJ (60,10)
815433fc35b04e1c  Db2/Composition/NL (30,10)
890982a824fd09bb  Db2/Composition/NOJOIN (10,30)
2026bea74bab4bf8  Db2/Composition/PHJ (90,10)
c271b6e3f17063ed  Db2/Composition/CHJ (90,10)
76c2e6ef8d75e193  hybrid/PHJ
ff5b335a896ed400  hybrid/CHJ
a5f1bc90b4cde07b  smj
a284773c2ae5df42  seq_scan residual=false
e88fb610d926b3c6  index_scan residual=false
249452cff083f54b  sorted_index_scan residual=false
1adcde1c2f276699  seq_scan residual=true
0d62f38ca9161d47  index_scan residual=true
a5c94a9b93fdd08a  sorted_index_scan residual=true
21f2f58bb84d7e35  update/Patients sel=10 delta=5
0f47d4b3a211c9ab  update/Providers sel=50 delta=0
